#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result line.

    python3 ypmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark package
(ypmbench/CMakeLists.txt, which builds the ypm library from src/) into
.bench_build/ypmbench, runs the driver binary, checks its outputs and
prints, as the last stdout line, one JSON object with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
The lines before it carry the run metadata, the output checks and, in a
traced run, the per-layer self-time table.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ypmbench"
BINARY = BUILD / "ypmbench"
BENCH_TID = 1000  # thread id of the benchmark's own spans (src/common.hpp)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ypmbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "ypmbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ypmbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cache_value(key):
    match = re.search(rf"^{key}:\w+=(.*)$", (BUILD / "CMakeCache.txt").read_text(),
                      re.MULTILINE)
    return match.group(1) if match else "unknown"


def compiler():
    for path in sorted((BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        text = path.read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            return f"{ident.group(1)} {version.group(1)}"
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout's own .git, read directly ("unknown" when the
    checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with path.open("rb") as f:
                total += sum(1 for _ in f)
    return total


def metadata(args, workers):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "workers": workers,
        "cpu": cpu_model(), "compiler": compiler(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"), "commit": git_commit(),
        "src_lines": src_lines(),
    }


def load_events(paths):
    """Complete ("X") events of the trace files, the benchmark's own spans
    moved onto the thread that issued the program's calls."""
    program, bench = [], []
    for path in paths:
        for e in json.loads(Path(path).read_text())["traceEvents"]:
            if e.get("ph") != "X":
                continue
            (bench if e["tid"] == BENCH_TID else program).append(e)
    main_tid = next((e["tid"] for e in program
                     if e["name"] in ("flow.run", "engine.batch")), 0)
    if any(e["name"] == "flow.run" for e in program):
        # The flow's trace files cover the last traced round only; drop the
        # benchmark's flow spans of earlier rounds.
        lo = min(e["ts"] for e in program)
        hi = max(e["ts"] + e["dur"] for e in program)
        bench = [e for e in bench if e["name"] != "bench.core.flow_run" or
                 (e["ts"] < hi and e["ts"] + e["dur"] > lo)]
    for e in bench:
        e["tid"] = main_tid
    return program + bench


def kernels_inside_batches(events):
    """Every engine.kernel span lies inside the engine.batch of its batch id."""
    batches = {e["args"]["batch"]: e for e in events if e["name"] == "engine.batch"}
    kernels = [e for e in events if e["name"] == "engine.kernel"]
    eps = 0.002  # the trace prints microseconds with three decimals
    bad = 0
    for k in kernels:
        b = batches.get(k["args"]["batch"])
        if b is None or k["ts"] < b["ts"] - eps or \
                k["ts"] + k["dur"] > b["ts"] + b["dur"] + eps:
            bad += 1
    return bad, len(kernels)


def layer_of(name):
    """Layer of a span: the module its name starts with. engine.kernel is
    the per-point kernel (circuits and spice, or a synthetic draw)."""
    if name == "engine.kernel":
        return "kernel"
    head = name.split(".")[0]
    if head == "bench":
        return name.split(".")[1]
    return {"flow": "core", "engine": "eval"}.get(head, head)


def self_times(events):
    """Per layer: span count, total and self time (ms). A span's self time
    is its duration minus the union of the spans it contains on its thread.
    engine.batch spans run from submit to retirement and overlap each other
    while batches stream, so they are left out."""
    rows = {}
    by_tid = {}
    for e in events:
        if e["name"] != "engine.batch":
            by_tid.setdefault(e["tid"], []).append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        for i, p in enumerate(spans):
            end = p["ts"] + p["dur"]
            covered, cur_lo, cur_hi = 0.0, None, None
            j = i + 1
            while j < len(spans) and spans[j]["ts"] < end:
                c = spans[j]
                j += 1
                if c["ts"] + c["dur"] > end:
                    continue
                if cur_hi is None or c["ts"] > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = c["ts"], c["ts"] + c["dur"]
                else:
                    cur_hi = max(cur_hi, c["ts"] + c["dur"])
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            row = rows.setdefault(layer_of(p["name"]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += p["dur"] / 1e3
            row[2] += max(p["dur"] - covered, 0.0) / 1e3
    return rows


def traced_extras(raw, metrics, checks, lines):
    events = load_events(raw["trace_files"])
    bad, kernels = kernels_inside_batches(events)
    checks.append({"name": "trace.kernel_inside_batch", "ok": bad == 0 and kernels > 0,
                   "detail": f"{kernels - bad} of {kernels} engine.kernel spans "
                             "inside their engine.batch"})
    if "eval.kernel_busy_s" not in metrics:
        # The flow's kernels run inside the program: take their busy time
        # from its own engine.kernel spans.
        busy = sum(e["dur"] for e in events if e["name"] == "engine.kernel") * 1e-6
        capacity = raw["workers"] * raw["round_wall_s"]
        metrics["eval.kernel_busy_s"] = {"value": busy, "unit": "s"}
        metrics["eval.pool_utilisation"] = {"value": busy / capacity, "unit": "ratio"}
        metrics["eval.non_kernel_us_per_item"] = {
            "value": (capacity - busy) / max(raw["round_requests"], 1) * 1e6,
            "unit": "us"}
    lines.append("self time per layer (traced run; bench spans are the "
                 "benchmark's own calls):")
    lines.append(f"{'layer':<10} {'spans':>8} {'total_ms':>12} {'self_ms':>12}")
    for layer, (count, total, own) in sorted(self_times(events).items(),
                                             key=lambda kv: -kv[1][2]):
        lines.append(f"{layer:<10} {count:>8} {total:>12.3f} {own:>12.3f}")
    overhead = metrics["obs.trace_overhead_frac"]["value"]
    lines.append(f"tracing overhead: {overhead * 100:+.2f} % of the untraced round")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    declared = declared_metrics(args.trace)
    build()
    out_dir = ROOT / ".bench_build" / "out" / args.workload
    proc = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"driver exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = raw["metrics"]
    checks = raw["checks"]
    lines = []
    if args.trace:
        traced_extras(raw, metrics, checks, lines)
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        fail("emitted metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - set(emitted))}, undeclared "
             f"{sorted(set(emitted) - set(declared))}, unit mismatches "
             f"{sorted(n for n in emitted if n in declared and emitted[n] != declared[n])}")

    report = {"meta": metadata(args, raw["workers"]), "digest": raw["digest"],
              "checks": checks}
    print(json.dumps(report))
    for line in lines:
        print(line)
    result = {
        "correct": bool(raw["correct"]) and all(c["ok"] for c in checks),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: metrics[name] for name in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
