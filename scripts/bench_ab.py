#!/usr/bin/env python3
"""Run the repo benchmark on two commits, interleaved, and write the ledger.

Usage:
  bench_ab.py PARENT HEAD --pr N [--change TEXT]
      Exports the committed files of each commit (git archive) into
      .bench_build/ab/<commit>/, builds its benchmark there with that
      checkout's ypmbench/run.py build step, and runs its run.py in pairs
      (no timed run compiles anything): 10 paper_flow and 10 synth_yield
      pairs at --trace 0, then 4 + 4 at --trace 1, each run
      BENCHMARK.json's run_seconds long. Pair k of a (workload, trace) runs
      both sides at --seed k + 1; the parent runs first on even k, the head
      on odd k. Writes BENCH_<N>.json (every run, per-metric medians and
      quartiles, head wins/losses, digests, host steal, CPU time) at the
      root of this checkout, and per (workload, trace) the two lists of
      result lines that bench_diff.py compares, as
      .bench_build/ab/results/<workload>.trace<t>.{parent,head}.json. Prints bench_diff.py's verdict for each --trace 0
      workload, and names every pair in which either side ran while host
      steal took more than 5 % of the CPU time. Exits 1 if a run is not
      correct, a digest differs between the sides of a pair, or
      bench_diff.py finds a regression.
  bench_ab.py --fixtures <dir>
      Self-test on canned results, without running ypmbench: the pair
      order against the newest BENCH_<N>.json (a change to PLAN needs a
      ledger run to it), and the assembly of <dir>/bench_diff.{a,b}.json
      (the real parent and head paper_flow runs of BENCH_17.json) into
      BENCH_17.json's metrics.

The sides run back to back on one host; files from different hosts or
hours differ by more than most bounds. On a shared virtual machine the
hypervisor can also take CPU time away during a run (steal), so each run
records the share of all CPUs' time that /proc/stat counted as steal
while it ran: a slow pair on a busy host reads as such. Each run also
records the user + system CPU seconds of its process tree (run.py, its
no-op build check and the benchmark binary), from getrusage(RUSAGE_CHILDREN):
a pair whose walls differ while its CPU times agree lost time to the host,
not to the commit.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_diff  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
SIDES = ("parent", "head")
# (workload, trace, pairs): ten pairs give the gain rule's nine-in-ten test.
PLAN = (("paper_flow", 0, 10), ("synth_yield", 0, 10),
        ("paper_flow", 1, 4), ("synth_yield", 1, 4))
# A pair where either side saw more steal than this is named by verdict().
BUSY_STEAL = 0.05


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat; (0, 0)
    where it cannot be read."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return 0, 0
    # user nice system idle iowait irq softirq steal (guest time is already
    # inside user and nice)
    values = [int(v) for v in fields[1:9]]
    return (values[7] if len(values) == 8 else 0), sum(values)


def steal_fraction(before, after):
    """Share of the CPU time between two cpu_jiffies() readings that was
    steal; 0 when no time passed."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def children_cpu_s():
    """User + system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def summary(values):
    """ypmbench/steadiness.py's summary(), with no spread for a zero median
    (a failure count, say)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def key_of(workload, trace):
    return f"{workload}.trace{trace}"


def schedule(plan):
    """Every run pair in run order: (workload, trace, seed, sides in order)."""
    for workload, trace, pairs in plan:
        for k in range(pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            yield workload, trace, k + 1, order


def export(commit):
    """Committed files of `commit` in their own directory; its run.py
    builds its own .bench_build there on the first run."""
    sha = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    tree = AB_DIR / sha
    done = tree / ".exported"
    if not done.is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        done.touch()
    # run.py's own build step, so that every timed run finds the build done.
    subprocess.run([sys.executable, "-c", "import run; run.build()"],
                   cwd=tree / "ypmbench", stdout=sys.stderr, check=True)
    return sha, tree


def run_side(tree, workload, trace, seed, seconds):
    """One run.py call: its report line (meta, digest), result line, the
    host steal share while it ran and the CPU seconds its processes used."""
    before, cpu_before = cpu_jiffies(), children_cpu_s()
    proc = subprocess.run(
        [sys.executable, str(tree / "ypmbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    steal = steal_fraction(before, cpu_jiffies())
    cpu_s = children_cpu_s() - cpu_before
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed in {tree}: {workload} seed {seed}")
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[0]), "result": json.loads(lines[-1]),
            "steal": steal, "cpu_s": cpu_s}


def metric_block(spec_metric, parent_values, head_values):
    better = spec_metric["better"]

    def head_better(p, h):
        return h < p if better == "lower" else h > p

    block = {
        "unit": spec_metric["unit"], "better": better,
        "parent_runs": parent_values, "head_runs": head_values,
        "head_wins": sum(head_better(p, h) for p, h in zip(parent_values, head_values)),
        "head_losses": sum(head_better(h, p) for p, h in zip(parent_values, head_values)),
        "parent": summary(parent_values), "head": summary(head_values),
    }
    parent_median = block["parent"]["median"]
    block["head_over_parent"] = (block["head"]["median"] / parent_median
                                 if parent_median else None)
    if "bound" in spec_metric:
        block["bound"] = spec_metric["bound"]
    return block


def assemble_runs(spec, trace, pairs):
    """The runs entry of one (workload, trace): `pairs` in pair order, each
    {"seed", "first_side", "parent": run, "head": run}."""
    declared = spec["per_layer" if trace else "end_to_end"]
    entry = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first_side": [p["first_side"] for p in pairs],
    }
    for side in SIDES:
        entry[f"{side}_digests"] = [p[side]["report"]["digest"] for p in pairs]
    for side in SIDES:
        entry[f"{side}_correct"] = all(p[side]["result"]["correct"] for p in pairs)
    for side in SIDES:
        entry[f"{side}_steal"] = [p[side]["steal"] for p in pairs]
    for side in SIDES:
        entry[f"{side}_cpu_s"] = [p[side]["cpu_s"] for p in pairs]
    entry["metrics"] = {}
    for m in declared:
        values = {side: [p[side]["result"]["metrics"][m["name"]]["value"]
                         for p in pairs] for side in SIDES}
        entry["metrics"][m["name"]] = metric_block(m, values["parent"],
                                                   values["head"])
    return entry


def assemble(spec, info, records):
    """BENCH_<pr>.json from every pair run. `info` holds pr, change and the
    two commits; `records` maps (workload, trace) to its pairs in order."""
    runs = {key_of(w, t): assemble_runs(spec, t, pairs)
            for (w, t), pairs in records.items()}
    first = next(iter(records.values()))[0]["parent"]["report"]["meta"]
    ledger = {
        "pr": info["pr"],
        "change": info["change"],
        "method": (
            "scripts/bench_ab.py: ypmbench/run.py for BENCHMARK.json's "
            "run_seconds on the committed files of the parent and of the head, "
            "each exported with git archive into its own directory with its "
            "own .bench_build, run back to back on one host. Per (workload, "
            "trace) pair k both sides use --seed k+1; the side that runs first "
            "alternates (parent first on even k). Medians, quartiles and spread "
            "per metric come from ypmbench/steadiness.py summary(); *_runs "
            "list every run in pair order. head_wins / head_losses count pairs "
            "where the head is better / worse in the metric's BENCHMARK.json "
            "direction (ties count for neither). *_steal list, per run, the "
            "share of all CPUs' time /proc/stat counted as steal while it ran; "
            "summary.busy_pairs names the pairs where either side exceeded "
            f"{BUSY_STEAL:.0%}. *_cpu_s list, per run, the user + system CPU "
            "seconds of run.py and its children (getrusage RUSAGE_CHILDREN); "
            "summary.cpu_s gives their medians per side and "
            "summary.cpu_s_counts what they count. All runs made are listed."),
        "host": {k: first[k] for k in ("nproc", "workers", "cpu", "compiler",
                                       "build_type")},
    }
    for side in SIDES:
        meta = next(iter(records.values()))[0][side]["report"]["meta"]
        ledger[side] = {"commit": info[side], "src_lines": meta["src_lines"]}

    end_to_end = {}
    for key, entry in runs.items():
        if not key.endswith(".trace0"):
            continue
        workload = key[: -len(".trace0")]
        for name, block in entry["metrics"].items():
            end_to_end[f"{workload}.{name}"] = {
                "parent_median": block["parent"]["median"],
                "parent_iqr": block["parent"]["q3"] - block["parent"]["q1"],
                "head_median": block["head"]["median"],
                "head_over_parent": block["head_over_parent"],
                "head_wins": block["head_wins"], "head_losses": block["head_losses"],
                "pairs": entry["pairs"],
                "within_bound": bench_diff.relative_worsening(
                    block["parent"]["median"], block["head"]["median"],
                    block["better"]) <= block["bound"],
            }
    mismatched = [f"{key} seed {seed}"
                  for key, entry in runs.items()
                  for seed, a, b in zip(entry["seeds"], entry["parent_digests"],
                                        entry["head_digests"]) if a != b]
    max_steal = {}
    for (workload, _), pairs in records.items():
        for p in pairs:
            for side in SIDES:
                max_steal[workload] = max(max_steal.get(workload, 0.0),
                                          p[side]["steal"])
    busy = [{"pair": f"{key} seed {seed}", "parent_steal": a, "head_steal": b}
            for key, entry in runs.items()
            for seed, a, b in zip(entry["seeds"], entry["parent_steal"],
                                  entry["head_steal"])
            if max(a, b) > BUSY_STEAL]
    cpu_s = {key: {f"{side}_median": statistics.median(entry[f"{side}_cpu_s"])
                   for side in SIDES} for key, entry in runs.items()}
    ledger["summary"] = {
        "end_to_end": end_to_end,
        "max_steal": max_steal,
        "busy_pairs": busy,
        "cpu_s": cpu_s,
        "cpu_s_counts": ("run.py, its no-op build check (the same on both "
                         "sides; each tree is built before the first pair) "
                         "and the benchmark binary"),
        "digests_equal": not mismatched,
        "digest_mismatches": mismatched,
        "all_correct": all(entry[f"{side}_correct"]
                           for entry in runs.values() for side in SIDES),
    }
    ledger["runs"] = runs
    return ledger


def side_lists(records, directory):
    """Write each side's result lines per (workload, trace); returns the
    --trace 0 file pairs for bench_diff.py."""
    directory.mkdir(parents=True, exist_ok=True)
    diffs = []
    for (workload, trace), pairs in records.items():
        paths = []
        for side in SIDES:
            path = directory / f"{key_of(workload, trace)}.{side}.json"
            path.write_text(json.dumps([p[side]["result"] for p in pairs], indent=1)
                            + "\n")
            paths.append(path)
        if trace == 0:
            diffs.append(paths)
    return diffs


def verdict(ledger, diffs, out):
    ok = ledger["summary"]["digests_equal"] and ledger["summary"]["all_correct"]
    for parent_path, head_path in diffs:
        ok = bench_diff.diff(parent_path, head_path, out) and ok
    for miss in ledger["summary"]["digest_mismatches"]:
        print(f"digest differs: {miss}", file=out)
    for key, cpu in ledger["summary"]["cpu_s"].items():
        print(f"CPU s per run, {key}: parent median {cpu['parent_median']:.2f}, "
              f"head median {cpu['head_median']:.2f}", file=out)
    for busy in ledger["summary"]["busy_pairs"]:
        print(f"host steal above {BUSY_STEAL:.0%}: {busy['pair']} (parent "
              f"{busy['parent_steal']:.1%}, head {busy['head_steal']:.1%})",
              file=out)
    return ok


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees, info = {}, {"pr": args.pr, "change": args.change}
    for side, commit in zip(SIDES, (args.parent, args.head)):
        info[side], trees[side] = export(commit)
    records = {}
    for workload, trace, seed, order in schedule(PLAN):
        pair = {"seed": seed, "first_side": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], workload, trace, seed, seconds)
            metrics = pair[side]["result"]["metrics"]
            print(f"{key_of(workload, trace)} seed {seed} {side}: digest "
                  f"{pair[side]['report']['digest']}, " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()
                            if trace == 0 or k == "circuits.point_us"),
                  file=sys.stderr)
        records.setdefault((workload, trace), []).append(pair)
    ledger = assemble(spec, info, records)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out}")
    return verdict(ledger, side_lists(records, AB_DIR / "results"), sys.stdout)


def canned_pairs(parent_results, head_results, digests, steals=None, cpus=None):
    """Pairs as the driver records them, from two lists of result lines
    (host steal and CPU seconds per side from `steals` and `cpus`, else
    none)."""
    meta = {"nproc": 4, "workers": 4, "cpu": "canned", "compiler": "canned",
            "build_type": "Release", "src_lines": 0}
    pairs = []
    steals = steals or [(0.0, 0.0)] * len(parent_results)
    cpus = cpus or [(0.0, 0.0)] * len(parent_results)
    for (workload, trace, seed, order), p, h, d, st, cpu in zip(
            schedule((("paper_flow", 0, len(parent_results)),)),
            parent_results, head_results, digests, steals, cpus):
        pairs.append({"seed": seed, "first_side": order[0],
                      "parent": {"report": {"meta": meta, "digest": d[0]},
                                 "result": p, "steal": st[0], "cpu_s": cpu[0]},
                      "head": {"report": {"meta": meta, "digest": d[1]},
                               "result": h, "steal": st[1], "cpu_s": cpu[1]}})
    return pairs


def latest_ledger():
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def self_test(directory):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((ROOT / "BENCH_17.json").read_text())
    failures = []

    # The newest ledger was run to the current plan: its seeds and first
    # sides per (workload, trace) are the order this driver must produce.
    latest = json.loads(latest_ledger().read_text())
    order = list(schedule(PLAN))
    for key, want in latest["runs"].items():
        pairs = [(seed, sides) for w, t, seed, sides in order if key_of(w, t) == key]
        if ([seed for seed, _ in pairs] != want["seeds"] or
                [sides[0] for _, sides in pairs] != want["first_side"] or
                any(sorted(sides) != sorted(SIDES) for _, sides in pairs)):
            failures.append(f"schedule of {key}: {pairs}")
    if len(order) != sum(entry["pairs"] for entry in latest["runs"].values()):
        failures.append(f"schedule has {len(order)} pairs")

    parent = bench_diff.load_results(Path(directory) / "bench_diff.a.json")
    head = bench_diff.load_results(Path(directory) / "bench_diff.b.json")
    same = [(f"{i:016x}", f"{i:016x}") for i in range(len(parent))]
    # Steal shares as /proc/stat gives them on a busy afternoon: pair 3 has
    # one side above the 5 % line.
    steals = [(0.004, 0.01), (0.02, 0.0), (0.0, 0.003), (0.031, 0.153),
              (0.0, 0.0), (0.012, 0.006), (0.0, 0.05), (0.001, 0.0),
              (0.0, 0.002), (0.009, 0.011)][:len(parent)]
    # CPU seconds per run of a 4-worker paper_flow: pair 3's head lost its
    # wall time to steal, not to extra work.
    cpus = [(27.1, 26.8), (26.5, 27.0), (27.4, 26.9), (26.9, 27.2),
            (27.0, 26.6), (26.8, 26.7), (27.3, 27.1), (26.6, 26.9),
            (27.2, 26.5), (26.7, 27.3)][:len(parent)]
    info = {"pr": 0, "change": "canned", "parent": "a", "head": "b"}
    records = {("paper_flow", 0): canned_pairs(parent, head, same, steals, cpus)}
    ledger = assemble(spec, info, records)
    want = expected["runs"]["paper_flow.trace0"]
    got = ledger["runs"]["paper_flow.trace0"]
    for field in ("pairs", "seeds", "first_side", "parent_correct", "head_correct",
                  "metrics"):
        if got[field] != want[field]:
            failures.append(f"assembled {field} differs from BENCH_17.json")
    summary_ok = (ledger["summary"]["digests_equal"] and
                  ledger["summary"]["end_to_end"]["paper_flow.wall_s"]["head_wins"] == 10)
    if not summary_ok:
        failures.append("summary of the canned runs")
    if (got["parent_steal"] != [st[0] for st in steals] or
            got["head_steal"] != [st[1] for st in steals] or
            ledger["summary"]["max_steal"] != {"paper_flow": 0.153}):
        failures.append("steal shares of the canned runs")
    if [b["pair"] for b in ledger["summary"]["busy_pairs"]] != [
            "paper_flow.trace0 seed 4"]:
        failures.append("the busy pair (seed 4, head steal 15.3 %) is not named")
    if (got["parent_cpu_s"] != [c[0] for c in cpus] or
            got["head_cpu_s"] != [c[1] for c in cpus] or
            ledger["summary"]["cpu_s"] != {
                "paper_flow.trace0": {"parent_median": 26.95,
                                      "head_median": 26.9}}):
        failures.append("CPU seconds of the canned runs")
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        diffs = side_lists(records, Path(tmp))
        named = io.StringIO()
        if not verdict(ledger, diffs, named):
            failures.append("canned parent -> head should pass")
        if "host steal above 5%: paper_flow.trace0 seed 4" not in named.getvalue():
            failures.append("verdict does not name the busy pair")
        if ("CPU s per run, paper_flow.trace0: parent median 26.95, head median "
                "26.90") not in named.getvalue():
            failures.append("verdict does not give the CPU medians")
        swapped = {("paper_flow", 0): canned_pairs(head, parent, same)}
        if verdict(assemble(spec, info, swapped), side_lists(swapped, Path(tmp)), sink):
            failures.append("canned head -> parent should fail (wall_s regression)")
        moved = same[:3] + [("0" * 16, "1" * 16)] + same[4:]
        bad = {("paper_flow", 0): canned_pairs(parent, head, moved)}
        bad_ledger = assemble(spec, info, bad)
        if (bad_ledger["summary"]["digest_mismatches"] != ["paper_flow.trace0 seed 4"]
                or verdict(bad_ledger, side_lists(bad, Path(tmp)), sink)):
            failures.append("a digest that differs in one pair should fail")

    for f in failures:
        print(f"bench_ab: {f}")
    print(f"bench_ab: {'ok' if not failures else 'FAILED'}")
    return not failures


def main(argv):
    if len(argv) == 3 and argv[1] == "--fixtures":
        return 0 if self_test(argv[2]) else 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("head")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--change", default="")
    return 0 if run(parser.parse_args(argv[1:])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
