#!/usr/bin/env python3
"""Steadiness check: two (or more) sets of runs of the same commit.

    python3 ypmbench/steadiness.py [--workload W ...] [--runs 10] [--sets 2]

Each set runs every workload --runs times through ypmbench/run.py for
BENCHMARK.json's run_seconds, with seeds 1 .. runs (the same seeds in every
set). Per workload and end-to-end metric it prints each set's median,
quartiles and sample count, the spread (quartile distance over the median),
and whether the sets agree: every spread within the metric's bound, and
every set's median within the bound of the first set's, in either
direction. A spread under a third of the bound is marked steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "ypmbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result: {workload} seed {seed}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    if args.runs < 4 or args.sets < 1:
        parser.error("need --runs >= 4 (quartiles) and --sets >= 1")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    all_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                runs.append(run_once(workload, seed, seconds))
                print(f"{workload} set {s + 1} seed {seed}: " +
                      ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                      file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}: {args.sets} sets x {args.runs} runs, {seconds} s each")
        print(f"{'metric':<14} {'set':>3} {'n':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'shift':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r[name] for r in runs]) for runs in sets]
            first = stats[0]["median"]
            for k, st in enumerate(stats):
                shift = abs(st["median"] - first) / first
                ok = st["spread"] <= bound and shift <= bound
                all_ok = all_ok and ok
                verdict = ("agree" if ok else "DISAGREE") + \
                    ("" if st["spread"] < bound / 3 else ", unsteady")
                print(f"{name:<14} {k + 1:>3} {st['n']:>3} {st['median']:>14.6g} "
                      f"{st['q1']:>14.6g} {st['q3']:>14.6g} {st['spread']:>8.4f} "
                      f"{shift:>8.4f} {bound:>6.3f}  {verdict}")
    print("\nall sets agree within the bounds" if all_ok else
          "\nSETS DISAGREE beyond the bounds")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
