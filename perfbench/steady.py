#!/usr/bin/env python3
"""Steadiness check: run each workload K times and report the spread.

    python3 perfbench/steady.py --runs 10 [--workloads start retrieve]
                                [--seed-base 100] [--save out.json]
                                [--against earlier.json]

Each run is `perfbench/run.py --workload W --seed <seed-base + i>
--seconds <run_seconds> --trace 0` in a fresh process. Per workload and
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json. A spread above the bound is
flagged FAIL, one above a third of the bound WARN; setup_s is checked like
every other metric. With --against, each median is also compared to
the median saved by an earlier --save, and a worsening beyond the bound is
flagged FAIL. Exits 1 when any run failed or any metric is flagged FAIL.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return None, env
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the medians to this file")
    parser.add_argument("--against", help="medians saved by an earlier --save")
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            metrics, env = run_once(workload, args.seed_base + i, args.seconds)
            if i == 0:
                print(f"== {workload}: env {env}")
            if metrics is None:
                print(f"   run {i} (seed {args.seed_base + i}): FAILED")
                ok = False
                continue
            for name in bounds:
                values[name].append(metrics[name])
            print(f"   run {i} (seed {args.seed_base + i}): " +
                  " ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                  flush=True)
        saved[workload] = {}
        print(f"   {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, (bound, better) in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            saved[workload][name] = med
            flag = ""
            if spread > bound:
                flag, ok = "FAIL", False
            elif spread > bound / 3:
                flag = "WARN"
            prev = earlier.get(workload, {}).get(name)
            if prev:
                worse = (med - prev) / prev if better == "lower" \
                    else (prev - med) / prev
                flag += f" vs earlier {worse:+.3f}"
                if worse > bound:
                    flag += " FAIL"
                    ok = False
            print(f"   {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.4f} {bound:6.3f} {flag}")
        sys.stdout.flush()
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
