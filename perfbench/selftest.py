#!/usr/bin/env python3
"""Self-test of the repo benchmark at smoke size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the untraced and the traced
pass at smoke size and asserts that the run passes its checks and that the
printed metric names, units and directions equal BENCHMARK.json's
end_to_end and per_layer lists, in order. It then corrupts one output per
check (run.py --corrupt CHECK) and asserts that the run reports
correct=false and exits nonzero. Last, it asserts that the benchmark exits
nonzero without a result line in a directory holding only BENCHMARK.json
and the benchmark's own files. Exits nonzero on the first failed assertion.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, corrupt="", script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    printed = [line.split() for line in lines if line.startswith("metric ")]
    return p, result, [(f[1], f[3], f[4]) for f in printed]


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lists = {0: spec["end_to_end"], 1: spec["per_layer"]}
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")

    for wl in spec["workloads"]:
        name = wl["name"]
        for trace in (0, 1):
            p, result, printed = run(name, trace)
            label = f"{name} trace={trace}"
            expect(p.returncode == 0, f"{label} exited {p.returncode}:\n"
                   f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
            expect(result is not None, f"{label} printed no result line")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} checks failed")
            want = [(m["name"], m["unit"], m["better"]) for m in lists[trace]]
            expect(printed == want, f"{label} printed metrics differ from "
                   f"BENCHMARK.json:\n{printed}\n{want}")
            expect(list(result["metrics"]) == [w[0] for w in want],
                   f"{label} result metrics differ from BENCHMARK.json")
            for mname, unit, _ in want:
                m = result["metrics"][mname]
                expect(m["unit"] == unit and isinstance(m["value"],
                                                        (int, float)),
                       f"{label} metric {mname}")
            print(f"ok   {label}: {result['attempted']} operations")

    listing = subprocess.run([binary, "--list"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
    checks = dict(line.split() for line in listing if line.strip())
    for wl in spec["workloads"]:
        for check in checks[wl["name"]].split(","):
            p, result, _ = run(wl["name"], 0, corrupt=check)
            label = f"{wl['name']} --corrupt {check}"
            expect(p.returncode != 0, f"{label} exited 0")
            expect(result is not None and not result["correct"]
                   and result["failed"] >= 1,
                   f"{label} did not report the failed check")
            print(f"ok   {label}: caught")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    copy = os.path.join(bare, os.path.basename(HERE))
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    p, result, _ = run(spec["workloads"][0]["name"], 0,
                       script=os.path.join(copy, "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and result is None,
           "run without the repo's sources did not fail cleanly")
    print("ok   refuses to run without the repo's sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
