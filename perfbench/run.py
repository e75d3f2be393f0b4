#!/usr/bin/env python3
"""Build and run the mpgeo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark package (this directory's CMakeLists.txt, which compiles the
repo's src/ libraries) under .bench_build/; later calls only let the build
tool confirm it is up to date. The workload runs in a child process with a
deadline; its standard output is passed through, so the last line is the
JSON result. A run that fails a check, crashes or outlives the deadline
exits nonzero, and in the last two cases prints no result line.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fit-matern", "factor-sqexp", "serve", "factor-ooc")
# A run must end within 180 s; leave room for the up-to-date check.
DEADLINE_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build; all build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mpgeo sources next to {HERE} (expected {ROOT}/src)")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(argv):
    """Run the benchmark binary; returns its exit code."""
    workdir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, *argv, "--workdir", workdir],
                              timeout=DEADLINE_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S} s and was stopped",
              file=sys.stderr)
        return 3
    finally:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        for name in os.listdir(workdir):
            if name.endswith(".trace.json"):
                os.makedirs(traces, exist_ok=True)
                os.replace(os.path.join(workdir, name),
                           os.path.join(traces, name))
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small shapes (self-test only)")
    ap.add_argument("--corrupt", default="",
                    help="corrupt one output before its check (self-test)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.smoke:
        argv.append("--smoke")
    if a.corrupt:
        argv += ["--corrupt", a.corrupt]
    sys.stdout.flush()
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
