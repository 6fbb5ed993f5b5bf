#!/usr/bin/env python3
"""Steadiness mode: run each workload under several seeds and summarize.

    python3 hostbench/steady.py --runs 10 [--seconds 20] [--workloads serve_cnn,...]
                                [--first-seed 1] [--trace 0]

Runs hostbench/run.py once per (workload, seed), seeds first-seed ..
first-seed + runs - 1, and prints for every metric its median, first and
third quartile (statistics.quantiles, n=4) and spread = (q3 - q1) / median.
With --trace 0 each spread is compared with its bound from BENCHMARK.json:
"ok" below a third of the bound, "wide" up to the bound, "OVER" past it.
The bounds in BENCHMARK.json were set from this output.  Exit status is 1
when any run fails or reports correct = false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        return None, proc.returncode


def main():
    spec = load_spec()
    names = [w["name"] for w in spec.get("workloads", [])] or [
        "serve_cnn", "serve_drift"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, code = run_once(workload, seed, args.seconds, args.trace)
            if result is None or code != 0 or not result.get("correct"):
                print("%s seed %d: run failed (exit %d)" % (workload, seed,
                                                            code))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s: %d runs, seeds %d..%d" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("%-32s %14s %14s %14s %8s  %s" % (
            "metric", "median", "q1", "q3", "spread", "verdict"))
        for name, xs in values.items():
            med = statistics.median(xs)
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = q3 = xs[0]
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if args.trace == 0 and name in bounds:
                bound = bounds[name]
                verdict = ("ok" if spread < bound / 3 else
                           "wide" if spread <= bound else "OVER")
                verdict += " (bound %.3g)" % bound
            print("%-32s %14.6g %14.6g %14.6g %8.4f  %s %s" % (
                name, med, q1, q3, spread, units[name], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
