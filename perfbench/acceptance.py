#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) next to the metric's bound from
BENCHMARK.json, plus the failed share of operations.

Run from the repository root:

    python3 perfbench/acceptance.py --seeds 1-10
    python3 perfbench/acceptance.py --workloads hot_read --seeds 101-105 --json out.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result and output lines to this file")
    args = ap.parse_args()
    runs = {}
    worst = 0.0
    for w in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {out.returncode}:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: output checks failed:\n{out.stderr}")
            # The lines before the result (operation counts, generator
            # lateness, machine steal) are kept with it.
            res["log"] = lines[:-1]
            results.append(res)
        runs[w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w}: {len(results)} runs, failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<24} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.2%} bound {m['bound']} {m['unit']}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
