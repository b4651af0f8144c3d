#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload start --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The C++ benchmark binary (perfbench/src) is configured and built
incrementally into .bench_build/perfbench at the checkout root; build output
goes to stderr so that the last line of stdout is always the binary's result
object. The result's metric names are checked against BENCHMARK.json. Exit
status is the binary's (0 = every correctness check passed); nonzero when the
build fails or the checkout holds no library sources.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "workload" / "testbed.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    # Keep the compiler's temporaries inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(args):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1], file=sys.stderr)
        fail(f"benchmark printed no result (exit {proc.returncode})")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ want)}")
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the plan self-test")
    args = parser.parse_args()
    build()
    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_plan_test")]).returncode
    if not args.workload:
        fail("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
