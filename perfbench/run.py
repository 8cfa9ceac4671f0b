#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record          # regenerate expected.txt

The first run configures and builds perfbench/ (the repository's libraries
plus the benchmark driver, CMake Release) under .bench_build/perfbench; later
runs rebuild incrementally.  Build output goes to stderr, so the last line of
stdout is the benchmark's result object.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to ROOT, where the binary runs.
OUT_DIR = os.path.join(".bench_build", "perfbench", "out")
BINARY = os.path.join(BUILD, "visrt_perfbench")
EXPECTED = os.path.join(HERE, "expected.txt")
WORKLOADS = ("circuit-batch", "ghost-stream")
# circuit-batch picks one of this many recorded graphs (circuit_batch.cc).
CIRCUIT_GRAPHS = 16
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to perfbench/ (expected ../src)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(tool + " not found")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)


def commit():
    """HEAD of the repository this checkout is, if it is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def bench_cmd(workload, seed, seconds, trace, *extra):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--expected", EXPECTED, "--out-dir", OUT_DIR,
            "--commit", commit(), *extra]


def run_captured(cmd):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def self_test():
    """Each workload at tiny size on two seeds, traced and untraced:
    every metric BENCHMARK.json names is printed with its unit and nothing
    fails; a deliberately wrong expected output must raise the failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                what = "%s seed %d trace %d" % (workload, seed, trace)
                code, lines = run_captured(
                    bench_cmd(workload, seed, 0.5, trace, "--tiny"))
                if code != 0 or not lines:
                    problems.append(what + ": exit code %d" % code)
                    continue
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append(what + ": result keys " + str(sorted(result)))
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(what + ": metric names/units differ from "
                                    "BENCHMARK.json")
                for name, m in result["metrics"].items():
                    if not isinstance(m["value"], (int, float)):
                        problems.append(what + ": %s is not a number" % name)
                if result["failed"] != 0 or not result["correct"] or \
                        result["attempted"] < 1:
                    problems.append(what + ": failure_ratio %d/%d" %
                                    (result["failed"], result["attempted"]))
        code, lines = run_captured(
            bench_cmd(workload, 1, 0.5, 0, "--tiny", "--corrupt-expected"))
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(workload + ": a wrong expected output did not "
                            "raise failure_ratio")
        print("self-test %s done" % workload, file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record():
    """Print expected.txt for the current build: the outputs of every
    recorded input (all circuit graphs, full and tiny; the ghost stream)."""
    lines = ["# Outputs the benchmark's checks compare (perfbench/run.py "
             "--record)."]
    runs = [("circuit-batch", g) for g in range(CIRCUIT_GRAPHS)]
    runs.append(("ghost-stream", 0))
    for workload, seed in runs:
        for size in ([], ["--tiny"]):
            code, out = run_captured(
                bench_cmd(workload, seed, 0.1, 0, "--record", *size))
            if code != 0:
                die("recording %s failed" % workload)
            recs = sorted(set(l[len("# record "):] for l in out
                              if l.startswith("# record ")))
            lines += recs
    print("\n".join(lines))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.record or args.workload):
        ap.error("need --workload, --self-test or --record")
    build()
    if args.self_test:
        return self_test()
    if args.record:
        return record()
    cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die("benchmark did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
