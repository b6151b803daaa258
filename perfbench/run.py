#!/usr/bin/env python3
"""Builds the eqc benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mc-frames-sec5 --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (Release)
into .bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr.  The benchmark binary then runs the workload and
its standard output is passed through: the last line is the result JSON
object.  Detail files and Chrome traces are written to .bench_out/.
Exit status: the binary's (0 = every output check passed), or 2 when the
build fails, in which case no result is printed.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "eqc_perfbench")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cached = cached_source_dir()
        if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
            shutil.rmtree(BUILD)  # a copied checkout: configure afresh
            os.makedirs(BUILD)
            cached = None
        if cached is None:
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_quiet(cmd):
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run_quiet(["cmake", "--build", BUILD, "--target", "eqc_perfbench",
                          "-j", jobs])


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree: no history to name
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="mc-frames-sec5 | mc-trials-ngate | campaign-sec5-k1")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--commit", commit()]
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
