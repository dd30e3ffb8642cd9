#!/usr/bin/env python3
"""Gate the estimator-zoo benchmark matrix (bench_yield_matrix).

Reads the yield_matrix.csv artifact (one row per {estimator} x {scenario}
cell) and enforces the per-column floors the bench-matrix CI job gates on.
Every floor is calibrated against the committed seeds (Rng(71)/(72)/(73)),
so the run is deterministic and a trip means a real estimator regression,
not runner noise.

Gates:
  shape        every registered estimator ran on every scenario
               (>= 4 estimators x >= 4 scenarios) and reached its CI target;
  rare_ota     every IS-family estimator reaches the target within 1/2 of
               the plain-MC samples (measured: 512-640 vs 2048);
  bimodal_ota  the mixture family reaches the target within 1/1.5 of the
               single shift's samples (measured: 1280-1408 vs 3072), while
               the single shift's fail-side ESS/sample stays collapsed
               (< 0.10) - the scenario's reason to exist;
  ce_scale     scale-adapted CE needs no more samples than mean-only CE on
               bimodal_ota (measured: 1280 vs 1408) - the gate that keeps
               the adapted variances from regressing into weight spikes;
  ess floors   fail-side ESS >= 10 effective failures wherever a weighted
               estimator reached its target on an OTA scenario, and the
               mixture family keeps ESS/sample >= 0.10 on the cheap
               synthetic_bimodal home scenario (measured: ~0.12);
  clean_sweep  all estimators report the identical unweighted Wilson
               estimate - the zero-failure reduction, zoo-wide.

Usage:
  check_matrix.py <yield_matrix.csv>
  check_matrix.py --fixtures <dir>
      Self-test: <dir>/yield_matrix.pass.csv must pass every gate and
      <dir>/yield_matrix.fail.csv must trip at least one.
"""

import csv
import os
import sys

IS_FAMILY = [
    "single_shift",
    "mixture_ce",
    "mixture_ce_scale",
]
MIXTURE_FAMILY = ["mixture_ce", "mixture_ce_scale"]
ALL_ESTIMATORS = ["plain_mc"] + IS_FAMILY

failures = []


def gate(ok, message):
    print(("PASS " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    cells = {(r["estimator"], r["scenario"]): r for r in rows}

    def num(estimator, scenario, field):
        return float(cells[(estimator, scenario)][field])

    scenarios = sorted({r["scenario"] for r in rows})
    estimators = sorted({r["estimator"] for r in rows})
    print(f"matrix: {len(estimators)} estimators x {len(scenarios)} scenarios "
          f"({len(rows)} cells)")
    gate(len(estimators) >= 4, f"matrix spans >= 4 estimators ({len(estimators)})")
    gate(len(scenarios) >= 4, f"matrix spans >= 4 scenarios ({len(scenarios)})")
    missing = [(e, s) for e in estimators for s in scenarios
               if (e, s) not in cells]
    gate(not missing, f"full cross product present (missing: {missing})")
    for e in ALL_ESTIMATORS:
        gate(e in estimators, f"estimator '{e}' present")
    if failures:
        return  # the per-cell gates below would only KeyError

    unreached = [(r["estimator"], r["scenario"]) for r in rows
                 if r["reached_target"] != "1"]
    gate(not unreached, f"every cell reached its CI target (missed: {unreached})")

    # rare_ota: the IS family must halve the plain-MC bill (the historical
    # bench gate is 3x for single_shift; the family-wide floor is 2x).
    plain = num("plain_mc", "rare_ota", "total_samples")
    for e in IS_FAMILY:
        total = num(e, "rare_ota", "total_samples")
        gate(2 * total <= plain,
             f"rare_ota: {e} total {total:.0f} <= 1/2 of plain MC {plain:.0f}")

    # bimodal_ota: the mixture family vs the collapsing single shift.
    single = num("single_shift", "bimodal_ota", "total_samples")
    single_eps = num("single_shift", "bimodal_ota", "ess_per_sample")
    gate(single_eps < 0.10,
         f"bimodal_ota: single-shift ESS/sample {single_eps:.4f} collapses (< 0.10)")
    for e in MIXTURE_FAMILY:
        total = num(e, "bimodal_ota", "total_samples")
        gate(1.5 * total <= single,
             f"bimodal_ota: {e} total {total:.0f} <= 1/1.5 of single shift "
             f"{single:.0f}")

    # Scale adaptation must help (or at least never hurt) where it is aimed.
    ce = num("mixture_ce", "bimodal_ota", "total_samples")
    ce_scale = num("mixture_ce_scale", "bimodal_ota", "total_samples")
    gate(ce_scale <= ce,
         f"bimodal_ota: scale-adapted CE {ce_scale:.0f} <= mean-only CE {ce:.0f}")

    # Fail-side ESS floors: enough effective failure observations behind
    # every weighted OTA estimate, and a healthy per-sample rate for the
    # mixture family on its cheap home scenario.
    for e in IS_FAMILY:
        for s in ("rare_ota", "bimodal_ota"):
            ess = num(e, s, "ess")
            gate(ess >= 10.0, f"{s}: {e} fail-side ESS {ess:.1f} >= 10")
    for e in MIXTURE_FAMILY:
        eps = num(e, "synthetic_bimodal", "ess_per_sample")
        gate(eps >= 0.10,
             f"synthetic_bimodal: {e} ESS/sample {eps:.4f} >= 0.10")

    # clean_sweep: the zero-failure Wilson reduction is zoo-wide and exact.
    ref = cells[("plain_mc", "clean_sweep")]
    for e in estimators:
        r = cells[(e, "clean_sweep")]
        same = all(r[k] == ref[k] for k in ("yield", "ci_low", "ci_high"))
        gate(same, f"clean_sweep: {e} matches the plain-MC Wilson numbers")


def run(path):
    """Run every gate on one CSV; True when all of them passed."""
    failures.clear()
    check(path)
    return not failures


def self_test(directory):
    """The .pass fixture must pass and the .fail fixture must fail."""
    wrong = []
    for kind, expected in (("pass", True), ("fail", False)):
        name = f"yield_matrix.{kind}.csv"
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
        print("\nall matrix gates passed")
        return 0
    print(f"\n{len(failures)} matrix gate(s) FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
