#!/usr/bin/env python3
"""A/A steadiness report: two sets of runs of the same build.

    python3 evalbench/aa.py [--runs 5] [--seconds S] [--workloads a,b] [--seed0 100]

Runs the BENCHMARK.json command untraced, `--runs` times per workload in
each of two sets (seeds differ run to run), and prints per metric and
workload each set's median, quartiles and spread (quartile distance
over median, as `statistics.quantiles(values, n=4)` gives it), the
pooled spread, and the distance between the two sets' medians,
|m2 - m1| / min(m1, m2), in either direction. Exits non-zero if any
check fails: a set's spread above its metric's bound, or medians
farther apart than it. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    context = next((l[len("context "):] for l in lines if l.startswith("context ")), "{}")
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if done.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {done.returncode})", flush=True)
    return result, json.loads(context)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--seed0", type=int, default=100)
    opts = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    values = {}  # (set, workload, metric) -> [value]
    for s in range(2):
        for i in range(opts.runs):
            for w in workloads:
                seed = opts.seed0 + s * opts.runs + i
                result, context = run_once(bench["command"], w, seed, seconds)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + (f" (late p90 {context['lateness_p90_ms']} ms)" if "lateness_p90_ms" in context else ""),
                      flush=True)
                for k, v in result["metrics"].items():
                    values.setdefault((s, w, k), []).append(v["value"])
    ok = True
    print(f"\n{'workload':<16} {'metric':<14} {'set':<4} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [values.get((s, w, name), []) for s in range(2)]
            if any(len(v) < 2 for v in sets):
                print(f"{w:<16} {name:<14} missing values")
                ok = False
                continue
            steady = True
            for s, v in enumerate(sets):
                sp, q1, q2, q3 = spread(v)
                steady &= sp <= bound
                print(f"{w:<16} {name:<14} {s + 1:<4} {q1:>10.4g} {q2:>10.4g} {q3:>10.4g} {sp:>7.3f} {bound:>6}")
            pooled = spread(sets[0] + sets[1])[0]
            m1, m2 = statistics.median(sets[0]), statistics.median(sets[1])
            drift = abs(m2 - m1) / min(m1, m2)
            agree = drift <= bound
            ok &= agree and steady
            print(f"{w:<16} {name:<14} all  pooled spread {pooled:.3f} (target < {bound / 3:.3f}), "
                  f"set medians {drift:.3f} apart: {'ok' if agree and steady else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
