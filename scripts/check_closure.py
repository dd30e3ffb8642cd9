#!/usr/bin/env python3
"""Gate the yield-in-the-loop closure experiment (bench_yield_closure).

Reads the yield_closure.csv artifact (one row per arm: yield_aware vs
nominal) and enforces the bench-smoke CI gates. The experiment is
deterministic (committed seed 2008, fixed reduced scale), so a trip means a
real regression in the probe -> selection path, not runner noise.

Gates:
  shape         both arms present, each with >= 3 certified front points;
  equal_budget  the arms spent the same optimiser engine-evaluation budget
                (nominal may exceed yield_aware by at most 5 % - the
                ceil-to-whole-generations rounding of the equal-budget
                construction - and must never be below it);
  probes_ran    the yield-aware arm actually probed (probe_samples > 0)
                and the nominal arm did not;
  closure       the yield-aware arm's certified minimum yield beats the
                nominal arm's by the ratio floor (measured at the committed
                seed: 1.000 vs 0.822 -> 1.22x; floor 1.05x), and strictly.

Usage:
  check_closure.py <yield_closure.csv>
  check_closure.py --fixtures <dir>
      Self-test: <dir>/yield_closure.pass.csv must pass every gate and
      <dir>/yield_closure.fail.csv must trip at least one.
"""

import csv
import os
import sys

RATIO_FLOOR = 1.05

failures = []


def gate(ok, message):
    print(("PASS " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check(path):
    with open(path, newline="") as f:
        rows = {r["arm"]: r for r in csv.DictReader(f)}

    gate("yield_aware" in rows, "yield_aware arm present")
    gate("nominal" in rows, "nominal arm present")
    if failures:
        return

    ya, nom = rows["yield_aware"], rows["nominal"]

    def num(row, field):
        return float(row[field])

    for name, row in (("yield_aware", ya), ("nominal", nom)):
        points = num(row, "certified_points")
        gate(points >= 3, f"{name}: >= 3 certified front points ({points:.0f})")

    ya_budget = num(ya, "optimiser_evaluations")
    nom_budget = num(nom, "optimiser_evaluations")
    gate(nom_budget >= ya_budget,
         f"equal budget: nominal {nom_budget:.0f} >= yield_aware "
         f"{ya_budget:.0f} (never starved)")
    gate(nom_budget <= 1.05 * ya_budget,
         f"equal budget: nominal {nom_budget:.0f} within 5 % of yield_aware "
         f"{ya_budget:.0f}")

    gate(num(ya, "probe_samples") > 0,
         f"yield_aware probed ({ya['probe_samples']} samples)")
    gate(num(nom, "probe_samples") == 0, "nominal arm ran probe-free")

    ya_min = num(ya, "min_yield")
    nom_min = num(nom, "min_yield")
    gate(ya_min > nom_min,
         f"closure: yield_aware min yield {ya_min:.4f} strictly beats "
         f"nominal {nom_min:.4f}")
    gate(ya_min >= RATIO_FLOOR * nom_min,
         f"closure: yield_aware min yield {ya_min:.4f} >= {RATIO_FLOOR}x "
         f"nominal {nom_min:.4f}")


def run(path):
    """Run every gate on one CSV; True when all of them passed."""
    failures.clear()
    check(path)
    return not failures


def self_test(directory):
    """The .pass fixture must pass and the .fail fixture must fail."""
    wrong = []
    for kind, expected in (("pass", True), ("fail", False)):
        name = f"yield_closure.{kind}.csv"
        print(f"--- {name}")
        if run(os.path.join(directory, name)) != expected:
            wrong.append(name)
    for name in wrong:
        print(f"FIXTURE MISMATCH {name}")
    return not wrong


def main(argv):
    if len(argv) == 3 and argv[1] == "--fixtures":
        return 0 if self_test(argv[2]) else 1
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if run(argv[1]):
        print("\nall closure gates passed")
        return 0
    print(f"\n{len(failures)} closure gate(s) FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
