#!/usr/bin/env python3
"""Gate one bench-smoke result (Google Benchmark JSON) against the declared
thresholds in THRESHOLDS below.

Gates:
  prototype_reuse  bench_spice_kernel --benchmark_filter='BM_OtaChunk.*/100'
  disarmed_span    bench_spice_kernel --benchmark_filter=BM_ObsDisarmedSpan
  mc_overlap       bench_spice_kernel --benchmark_filter='BM_OtaMcParetoPoints.*'
  yield_is         bench_yield_is (rare-spec and bimodal-mixture scenarios)
  sparse_lu        bench_spice_kernel --benchmark_filter='BM_OtaAcLu.*'
  child_stream     bench_spice_kernel
                   --benchmark_filter='BM_RngChild(Batch)?FirstDraw.*|BM_RngChild64Gauss.*'

The timing gates read the median aggregates of a repeated run
(--benchmark_repetitions=N --benchmark_report_aggregates_only=true).

Usage:
  check_bench.py <gate> <benchmark.json>
  check_bench.py --fixtures <dir>
      Self-test: for every gate, <dir>/<gate>.pass.json must pass, and
      <dir>/<gate>.fail.json and every <dir>/<gate>.fail_<case>.json must
      fail.
"""

import json
import os
import sys

# Every threshold the bench-smoke job gates on, with its rationale.
THRESHOLDS = {
    # Prototype reuse (BM_OtaChunkPrototypeReuse/100) against the rebuild
    # oracle (BM_OtaChunkRebuildPerPoint/100, which rebuilds the testbench
    # and re-records every device's AC stamp at every frequency), median
    # points/s over repetitions so shared-runner noise cannot flip it.
    "prototype_reuse_min_ratio": 1.5,
    # An obs::Span built and destroyed with tracing off plus one arg()
    # call, in absolute ns per site. Measured median 3.4 ns (4-core Xeon
    # container, GCC 12, Release); the ceiling is ~4.4x that, far above
    # run-to-run noise, while an accidentally armed span (two clock reads
    # plus an event push) lands well above it.
    "disarmed_span_max_ns": 15.0,
    # Async streaming dispatch vs the blocking engine: six Pareto points x
    # (Bode + 100 MC samples + stats), the flow's step 4 shape, on median
    # real time. The win grows with core count (>= 1.2x on 8+ cores); the
    # floor is 1.1x so 4-vCPU hosted runners gate on a real regression
    # rather than scheduler noise.
    "mc_overlap_min_ratio": 1.1,
    # Rare-spec scenario: plain sequential MC and the single-shift IS
    # estimator run to the same CI half-width target; IS must need at most a
    # third of the plain-MC samples (pilot included). Deterministic in its
    # seeds, so this gates estimator efficiency, not runner speed.
    "is_rare_min_ratio": 3.0,
    # Bimodal two-spec scenario precondition: the single-shift proposal's
    # fail-side ESS must collapse below 10 % of samples, or the scenario
    # has lost its point.
    "bimodal_single_shift_max_ess_per_sample": 0.10,
    # ... while the defensive mixture + CE refinement reaches the same
    # target in at most two thirds of the single-shift samples.
    "bimodal_mixture_min_ratio": 1.5,
    # InplaceLu's exact-zero skipping on the OTA's captured AC systems:
    # the textbook dense ReferenceLu (BM_OtaAcLuReference) over InplaceLu
    # (BM_OtaAcLuInplace), median real time of one interleaved repeated
    # run, so host drift hits both sides alike. Measured 1.73-1.77x with
    # the skipping and 1.29-1.36x for the dense InplaceLu before it (4-vCPU
    # Xeon container, GCC 12, Release, 9 repetitions of 0.2 s); the floor
    # sits between, so losing the skip fails and noise does not.
    "sparse_lu_min_ratio": 1.5,
    # One per-item RNG stream (Rng::child plus its first draw), in absolute
    # ns, the setup every Monte Carlo item pays. Measured median 380-430 ns
    # with the lazily seeded Mt19937_64 and 3.4-3.7 us for the
    # std::mt19937_64 reference row, which seeds and twists all 312 words
    # up front (4-vCPU Xeon container, GCC 12, Release, 7 repetitions of
    # 0.3 s); the ceiling sits between, so an eager engine fails and noise
    # does not.
    "child_stream_max_ns": 1500.0,
    # The same per stream when the engine's chunk task builds its streams
    # with Rng::children, eight at a time (BM_RngChildBatchFirstDraw).
    # Measured median 122-245 ns batched (middle run 172 ns; this row moves
    # more with host load than the one-at-a-time row) and 385-470 ns for
    # one Rng::child at a time, over 11 runs of 5-7 interleaved repetitions
    # of 0.2-0.3 s (4-vCPU Xeon container, GCC 12, Release); the ceiling
    # sits between, so streams seeded one by one fail.
    "child_batch_max_ns": 300.0,
    # A fresh stream plus 64 standard normals, a highdim_synthetic sample's
    # worth, in absolute ns: 64 scalar gauss() calls (BM_RngChild64Gauss)
    # and one batched gauss(span) call (BM_RngChild64GaussSpan), each row
    # held to this ceiling. Measured medians over 5 runs of 5 interleaved
    # repetitions of 0.2 s (4-vCPU Xeon container, GCC 12, Release): 5.6-6.5
    # us for the scalar row before the branch-free canonical() and the
    # doubling first-block refills, 4.0-4.4 us after them, and 3.0-3.3 us for
    # the span row. The ceiling sits between the two scalar ranges, so
    # losing either cut fails and noise does not.
    "child_gauss64_max_ns": 4900.0,
}


class Checker:
    def __init__(self):
        self.failures = []

    def gate(self, ok, message):
        print(("PASS " if ok else "FAIL ") + message)
        if not ok:
            self.failures.append(message)


def medians(data, field):
    """{name: field} over the median aggregates of a repeated run."""
    return {b["name"]: b.get(field) for b in data["benchmarks"]
            if b.get("aggregate_name") == "median"}


def by_family(data):
    """{benchmark family (name up to the first '/'): entry}."""
    return {b["name"].split("/")[0]: b for b in data["benchmarks"]}


def overlaps(a, b):
    return a["ci_low"] <= b["ci_high"] and a["ci_high"] >= b["ci_low"]


def prototype_reuse(data, check):
    rate = medians(data, "points_per_second")
    rebuild = rate["BM_OtaChunkRebuildPerPoint/100_median"]
    proto = rate["BM_OtaChunkPrototypeReuse/100_median"]
    ratio = proto / rebuild
    floor = THRESHOLDS["prototype_reuse_min_ratio"]
    check.gate(ratio >= floor,
               f"prototype reuse {proto:.0f} pts/s vs rebuild {rebuild:.0f} "
               f"pts/s -> {ratio:.2f}x (>= {floor}x)")


def disarmed_span(data, check):
    ns = medians(data, "cpu_time")["BM_ObsDisarmedSpan_median"]
    ceiling = THRESHOLDS["disarmed_span_max_ns"]
    check.gate(ns <= ceiling,
               f"disarmed span {ns:.2f} ns per site (<= {ceiling} ns)")


def mc_overlap(data, check):
    wall = medians(data, "real_time")
    blocking = wall[
        "BM_OtaMcParetoPointsBlocking/100/process_time/real_time_median"]
    overlapped = wall[
        "BM_OtaMcParetoPointsAsync/100/process_time/real_time_median"]
    ratio = blocking / overlapped
    floor = THRESHOLDS["mc_overlap_min_ratio"]
    check.gate(ratio >= floor,
               f"overlapped MC {overlapped:.1f} vs blocking {blocking:.1f} "
               f"-> {ratio:.2f}x (>= {floor}x)")


def sparse_lu(data, check):
    wall = medians(data, "real_time")
    reference = wall["BM_OtaAcLuReference_median"]
    inplace = wall["BM_OtaAcLuInplace_median"]
    ratio = reference / inplace
    floor = THRESHOLDS["sparse_lu_min_ratio"]
    check.gate(ratio >= floor,
               f"OTA AC LU: reference {reference:.0f} vs inplace "
               f"{inplace:.0f} -> {ratio:.2f}x (>= {floor}x)")


def child_stream(data, check):
    ns = medians(data, "cpu_time")
    ours = ns["BM_RngChildFirstDraw_median"]
    reference = ns.get("BM_RngChildFirstDrawReference_median")
    context = f", std::mt19937_64 reference {reference:.0f} ns" if reference else ""
    ceiling = THRESHOLDS["child_stream_max_ns"]
    check.gate(ours <= ceiling,
               f"child stream + first draw {ours:.0f} ns (<= {ceiling:.0f} ns)"
               f"{context}")
    batch = ns["BM_RngChildBatchFirstDraw_median"]
    ceiling = THRESHOLDS["child_batch_max_ns"]
    check.gate(batch <= ceiling,
               f"batched child stream + first draw {batch:.0f} ns per stream "
               f"(<= {ceiling:.0f} ns)")
    ceiling = THRESHOLDS["child_gauss64_max_ns"]
    for row, what in (("BM_RngChild64Gauss", "64 gauss() calls"),
                      ("BM_RngChild64GaussSpan", "one 64-normal gauss(span)")):
        gauss = ns[row + "_median"]
        check.gate(gauss <= ceiling,
                   f"child stream + {what} {gauss:.0f} ns (<= {ceiling:.0f} ns)")


def yield_is(data, check):
    c = by_family(data)
    ref = c["BM_YieldBruteForceReference"]
    plain = c["BM_YieldSequentialPlainMc"]
    imp = c["BM_YieldSequentialImportance"]
    check.gate(plain["reached_target"] == 1.0,
               "plain MC reached the CI target")
    check.gate(imp["reached_target"] == 1.0, "IS reached the CI target")
    ratio = plain["samples"] / imp["samples"]
    floor = THRESHOLDS["is_rare_min_ratio"]
    check.gate(ratio >= floor,
               f"rare-spec: plain MC {plain['samples']:.0f} samples vs IS "
               f"{imp['samples']:.0f} (incl. pilot) -> {ratio:.2f}x fewer "
               f"(>= {floor}x), ESS {imp['ess']:.1f}")
    check.gate(overlaps(imp, ref),
               f"rare-spec: IS yield {imp['yield']:.5f} "
               f"[{imp['ci_low']:.5f}, {imp['ci_high']:.5f}] overlaps the "
               f"reference [{ref['ci_low']:.5f}, {ref['ci_high']:.5f}]")

    bref = c["BM_YieldBimodalReference"]
    bsingle = c["BM_YieldBimodalSingleShift"]
    bmix = c["BM_YieldBimodalMixture"]
    ceiling = THRESHOLDS["bimodal_single_shift_max_ess_per_sample"]
    check.gate(bsingle["ess_per_sample"] < ceiling,
               f"bimodal: single-shift ESS/sample "
               f"{bsingle['ess_per_sample']:.4f} collapsed (< {ceiling}); "
               f"mixture {bmix['ess_per_sample']:.4f} with "
               f"{bmix['components']:.0f} components, "
               f"{bmix['refinements']:.0f} CE refits")
    check.gate(bmix["reached_target"] == 1.0,
               "bimodal: mixture reached the CI target")
    ratio = bsingle["samples"] / bmix["samples"]
    floor = THRESHOLDS["bimodal_mixture_min_ratio"]
    check.gate(ratio >= floor,
               f"bimodal: single-shift {bsingle['samples']:.0f} samples vs "
               f"mixture {bmix['samples']:.0f} (incl. pilot) -> "
               f"{ratio:.2f}x fewer (>= {floor}x)")
    check.gate(overlaps(bmix, bref),
               f"bimodal: mixture yield {bmix['yield']:.5f} "
               f"[{bmix['ci_low']:.5f}, {bmix['ci_high']:.5f}] overlaps the "
               f"reference [{bref['ci_low']:.5f}, {bref['ci_high']:.5f}]")


GATES = {
    "prototype_reuse": prototype_reuse,
    "disarmed_span": disarmed_span,
    "mc_overlap": mc_overlap,
    "yield_is": yield_is,
    "sparse_lu": sparse_lu,
    "child_stream": child_stream,
}


def run(gate, path):
    """Run one gate on one JSON file; True when every check passed."""
    with open(path) as f:
        data = json.load(f)
    check = Checker()
    GATES[gate](data, check)
    return not check.failures


def self_test(directory):
    """Every gate must pass its .pass fixture and fail its .fail fixture and
    every further .fail_<case> fixture."""
    wrong = []
    for gate in GATES:
        fails = sorted(name for name in os.listdir(directory)
                       if name.startswith(f"{gate}.fail_") and name.endswith(".json"))
        cases = [(f"{gate}.pass.json", True), (f"{gate}.fail.json", False)]
        cases += [(name, False) for name in fails]
        for name, expected in cases:
            path = os.path.join(directory, name)
            print(f"--- {gate} on {name}")
            if run(gate, path) != expected:
                wrong.append(name)
    for name in wrong:
        print(f"FIXTURE MISMATCH {name}")
    return not wrong


def main(argv):
    if len(argv) == 3 and argv[1] == "--fixtures":
        return 0 if self_test(argv[2]) else 1
    if len(argv) != 3 or argv[1] not in GATES:
        print(__doc__, file=sys.stderr)
        print("gates: " + ", ".join(GATES), file=sys.stderr)
        return 2
    return 0 if run(argv[1], argv[2]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
