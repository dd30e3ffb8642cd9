#!/usr/bin/env python3
"""Compare two sets of ypmbench results metric by metric.

Usage:
  bench_diff.py A.json B.json
      A and B each hold one ypmbench/run.py result (the last line it
      prints) or a JSON list of them, all of one workload and trace mode.
      For every metric in both, prints the median of A, the median of B
      and the change from A to B. End-to-end metrics are judged against
      their BENCHMARK.json bound in the metric's better direction; a
      per-layer metric (no bound) is printed with its layer, unjudged.
      Exits 1 if any end-to-end metric is worse by more than its bound, if
      one is missing, or if any result is not correct.
  bench_diff.py --fixtures <dir>
      Self-test: <dir>/bench_diff.a.json against <dir>/bench_diff.b.json
      must pass, and the reverse must fail.

The medians compare runs made on one host in one session; files from
different hosts or hours differ by more than most bounds.
"""

import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(path):
    data = json.loads(Path(path).read_text())
    results = data if isinstance(data, list) else [data]
    if not results:
        raise ValueError(f"{path}: no results")
    return results


def medians(results):
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(float(m["value"]))
    return {name: statistics.median(v) for name, v in values.items()}


def relative_worsening(a, b, better):
    """How much worse b is than a, as a fraction of a (negative = better)."""
    if a == b:
        return -0.0  # printed negated: no change reads +0.0%
    if a == 0:
        return math.inf if (b > a) == (better == "lower") else -math.inf
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def diff(path_a, path_b, out=sys.stdout):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_results = load_results(path_a)
    b_results = load_results(path_b)
    ok = True
    for label, results in (("A", a_results), ("B", b_results)):
        bad = sum(1 for r in results if not r.get("correct", False))
        if bad:
            print(f"{label}: {bad} of {len(results)} results not correct", file=out)
            ok = False
    a_med, b_med = medians(a_results), medians(b_results)
    print(f"A: {path_a} ({len(a_results)} runs)  B: {path_b} ({len(b_results)} runs)",
          file=out)
    print(f"{'metric':44} {'median A':>12} {'median B':>12} {'B vs A':>9} "
          f"{'bound':>7}  verdict", file=out)

    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in a_med or name not in b_med:
            print(f"{name:44} missing in {'A' if name not in a_med else 'B'}", file=out)
            ok = False
            continue
        worse = relative_worsening(a_med[name], b_med[name], m["better"])
        regressed = worse > m["bound"]
        ok = ok and not regressed
        verdict = "REGRESSION" if regressed else ("better" if worse < 0 else "ok")
        print(f"{name + ' (' + m['unit'] + ')':44} {a_med[name]:12.6g} {b_med[name]:12.6g} "
              f"{-worse:+9.1%} {m['bound']:7.0%}  {verdict}", file=out)

    for m in spec["per_layer"]:
        name = m["name"]
        if name not in a_med or name not in b_med:
            continue
        worse = relative_worsening(a_med[name], b_med[name], m["better"])
        layer = name.split(".", 1)[0]
        print(f"{name + ' (' + m['unit'] + ')':44} {a_med[name]:12.6g} {b_med[name]:12.6g} "
              f"{-worse:+9.1%} {'-':>7}  layer {layer}", file=out)
    print("(B vs A: + is better in the metric's direction)", file=out)
    print("PASS" if ok else "FAIL", file=out)
    return ok


def self_test(directory):
    a = os.path.join(directory, "bench_diff.a.json")
    b = os.path.join(directory, "bench_diff.b.json")
    with open(os.devnull, "w") as sink:
        forward = diff(a, b, sink)
        reverse = diff(b, a, sink)
    print(f"bench_diff: a->b {'passes' if forward else 'FAILS'} (want pass), "
          f"b->a {'passes' if reverse else 'fails'} (want fail)")
    return forward and not reverse


def main(argv):
    if len(argv) == 3 and argv[1] == "--fixtures":
        return 0 if self_test(argv[2]) else 1
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if diff(argv[1], argv[2]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
