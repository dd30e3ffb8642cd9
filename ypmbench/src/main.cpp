// ypmbench: the benchmark driver behind ypmbench/run.py.
//
//   ypmbench --workload <paper_flow|synth_yield> --seed <n>
//            --seconds <s> --trace <0|1> --out <dir>
//   ypmbench --make-references
//
// A run starts the thread pool, sets the workload up fifteen times (setup_s
// is the pool start plus the median set-up), then repeats identical rounds
// for --seconds and reports medians over rounds.
// With --trace 1 it instead times half the budget untraced and half traced
// (trace overhead), runs the layer probes and writes Chrome traces into
// --out. The last stdout line is one JSON object with the metrics, the
// output checks and the digest; run.py turns it into the result line.

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace ypmbench {

namespace {

using ypm::util::now_ns;
using ypm::util::seconds_between;
using ypm::util::TickNs;

constexpr int kSetups = 15;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
    bool make_references = false;
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--make-references") {
            args.make_references = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--out")
            args.out_dir = value;
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (!args.make_references && args.workload.empty())
        throw std::invalid_argument("--workload is required");
    return args;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Rounds {
    std::vector<RoundResult> results;
    /// Sum over the round's operations of each operation's median wall
    /// across rounds: a round's wall with one-off stalls filtered out.
    double median_wall = 0.0;
};

/// Repeat rounds until the next one would overrun `seconds` (at least one).
Rounds run_rounds(Workload& workload, SpanLog& spans, bool traced,
                  double seconds) {
    Rounds out;
    std::vector<double> round_walls;
    const TickNs t0 = now_ns();
    do {
        out.results.push_back(workload.round(spans, traced));
        round_walls.push_back(out.results.back().wall_s);
    } while (seconds_between(t0, now_ns()) + median(round_walls) <= seconds);
    const std::size_t ops = out.results.front().op_wall_s.size();
    for (std::size_t i = 0; i < ops; ++i) {
        std::vector<double> walls;
        for (const RoundResult& r : out.results) walls.push_back(r.op_wall_s.at(i));
        out.median_wall += median(walls);
    }
    return out;
}

/// Every round repeats the same work: same digest, same ledger counts.
void check_rounds_identical(const std::vector<RoundResult>& rounds,
                            Report& report) {
    const RoundResult& first = rounds.front();
    bool same = true;
    for (const RoundResult& r : rounds)
        same = same && r.digest == first.digest &&
               r.ledger.requests == first.ledger.requests &&
               r.ledger.evaluations == first.ledger.evaluations &&
               r.ledger.cache_hits == first.ledger.cache_hits &&
               r.ledger.failures == first.ledger.failures &&
               r.samples == first.samples;
    report.check("rounds_identical", same,
                 std::to_string(rounds.size()) +
                     " rounds with one digest and one ledger");
    report.digest = first.digest;
    for (const RoundResult& r : rounds) {
        report.attempted += r.operations;
        report.failed += r.failed_operations;
    }
    for (const Check& c : rounds.back().checks) report.checks.push_back(c);
}

void add_end_to_end(const Rounds& rounds, double setup_s, Report& report) {
    const RoundResult& last = rounds.results.back();
    const double wall = rounds.median_wall;
    const auto& ledger = last.ledger;
    report.add("wall_s", wall, "s");
    report.add("evals_per_s", static_cast<double>(ledger.evaluations) / wall, "1/s");
    report.add("samples_to_ci", static_cast<double>(last.samples), "count");
    report.add("ok_frac",
               1.0 - static_cast<double>(ledger.failures) /
                         static_cast<double>(std::max<std::size_t>(ledger.requests, 1)),
               "ratio");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Engine-layer numbers of one traced round. Kernel busy time comes from
/// the wrapped kernel factory; the flow's comes from its own trace file,
/// which run.py reads.
void add_engine_layer(const RoundResult& r, std::size_t workers, Report& report) {
    const auto& c = r.ledger;
    report.add("eval.requests", static_cast<double>(c.requests), "count");
    report.add("eval.evaluations", static_cast<double>(c.evaluations), "count");
    report.add("eval.cache_hit_ratio",
               static_cast<double>(c.cache_hits) /
                   static_cast<double>(std::max<std::size_t>(c.requests, 1)),
               "ratio");
    report.add("eval.failures", static_cast<double>(c.failures), "count");
    report.add("eval.calling_thread_s", c.wall_seconds, "s");
    if (r.kernel_busy_s < 0.0) return;
    const double capacity = static_cast<double>(workers) * r.wall_s;
    report.add("eval.kernel_busy_s", r.kernel_busy_s, "s");
    report.add("eval.pool_utilisation", r.kernel_busy_s / capacity, "ratio");
    report.add("eval.non_kernel_us_per_item",
               (capacity - r.kernel_busy_s) /
                   static_cast<double>(std::max<std::size_t>(c.requests, 1)) * 1e6,
               "us");
}

void add_flow_layer(const RoundResult& r, Report& report) {
    report.add("core.moo_s", r.flow.moo_seconds, "s");
    report.add("core.mc_s", r.flow.mc_seconds, "s");
    report.add("core.table_s", r.flow.table_seconds, "s");
    report.add("moo.evaluations", static_cast<double>(r.moo_evaluations), "count");
}

void add_yield_layer(const RoundResult& r, std::size_t workers, Report& report) {
    std::size_t pilot = 0;
    std::size_t refits = 0;
    std::size_t chunks = 0;
    double ess_per_sample = 0.0;
    for (const CellStats& cell : r.cells) {
        report.add("yield.samples." + cell.scenario + "." + cell.estimator,
                   static_cast<double>(cell.samples), "count");
        pilot += cell.pilot_samples;
        refits += cell.refits;
        chunks += cell.chunks;
        ess_per_sample +=
            cell.ess_per_sample_sum / static_cast<double>(cell.certifications);
    }
    report.add("yield.pilot_samples", static_cast<double>(pilot), "count");
    report.add("yield.refits", static_cast<double>(refits), "count");
    report.add("yield.chunks", static_cast<double>(chunks), "count");
    report.add("yield.ess_per_sample",
               ess_per_sample / static_cast<double>(r.cells.size()), "ratio");
    report.add("yield.kernel_share",
               r.kernel_busy_s / (static_cast<double>(workers) * r.wall_s), "ratio");
}

void run_traced(const Args& args, Workload& workload, Report& report,
                std::size_t workers) {
    SpanLog spans;
    const Rounds plain = run_rounds(workload, spans, false, 0.5 * args.seconds);

    // The flow traces itself through FlowConfig::trace_path; for
    // synth_yield the benchmark switches the program's tracer on itself.
    const bool own_tracer = args.workload != "paper_flow";
    spans.enable(true);
    if (own_tracer) {
        ypm::obs::Tracer::global().clear();
        ypm::obs::Tracer::set_enabled(true);
    }
    const Rounds traced = run_rounds(workload, spans, true, 0.5 * args.seconds);
    ypm::obs::Tracer::set_enabled(false);
    std::vector<ypm::obs::TraceEvent> events;
    if (own_tracer) events = ypm::obs::Tracer::global().drain();

    std::vector<RoundResult> all = plain.results;
    all.insert(all.end(), traced.results.begin(), traced.results.end());
    check_rounds_identical(all, report);

    const RoundResult& last = traced.results.back();
    add_engine_layer(last, workers, report);
    report.add("obs.trace_overhead_frac",
               traced.median_wall / plain.median_wall - 1.0, "ratio");

    // Flow steps: the workload's own traced flow, or one probe flow. The
    // flow and cell probes run untraced, so their spans would carry no
    // program spans beneath them; they stay out of the trace.
    SpanLog untraced;
    if (args.workload == "paper_flow") {
        add_flow_layer(last, report);
        const double steps =
            last.flow.moo_seconds + last.flow.mc_seconds + last.flow.table_seconds;
        report.check("paper_flow.steps_within_wall", steps <= last.wall_s,
                     "core.moo_s + core.mc_s + core.table_s <= round wall");
    } else {
        auto flow = make_flow_probe(args.seed, args.out_dir);
        flow->setup();
        add_flow_layer(flow->round(untraced, false), report);
    }

    auto cells = make_cell_probe(args.seed);
    cells->setup();
    const RoundResult cell_round = cells->round(untraced, true);
    add_yield_layer(cell_round, workers, report);
    for (const Check& c : cell_round.checks) report.checks.push_back(c);

    run_layer_probes(args.seed, spans, report);

    events.insert(events.end(), spans.events().begin(), spans.events().end());
    const std::string bench_trace = args.out_dir + "/bench_trace.json";
    ypm::obs::write_chrome_trace(bench_trace, events);
    report.trace_files.push_back(bench_trace);
    for (const std::string& path : workload.program_traces())
        report.trace_files.push_back(path);
    report.round_wall_s = last.wall_s;
    report.round_requests = last.ledger.requests;
}

std::string to_json(const Args& args, const Report& report, std::size_t workers) {
    namespace str = ypm::str;
    std::string out = "{\"workload\":\"" + str::json_escape(args.workload) +
                      "\",\"seed\":" + std::to_string(args.seed) +
                      ",\"trace\":" + (args.trace ? "1" : "0") +
                      ",\"workers\":" + std::to_string(workers) +
                      ",\"correct\":" + (report.correct() ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(report.attempted) +
                      ",\"failed\":" + std::to_string(report.failed) +
                      ",\"digest\":\"" + report.digest + "\"";
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", report.round_wall_s);
    out += ",\"round_wall_s\":" + std::string(num) +
           ",\"round_requests\":" + std::to_string(report.round_requests) +
           ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& m = report.metrics[i];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        out += (i == 0 ? "" : ",");
        out += "\"" + str::json_escape(m.name) + "\":{\"value\":" + num +
               ",\"unit\":\"" + str::json_escape(m.unit) + "\"}";
    }
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < report.checks.size(); ++i) {
        const Check& c = report.checks[i];
        out += (i == 0 ? "" : ",");
        out += "{\"name\":\"" + str::json_escape(c.name) +
               "\",\"ok\":" + (c.ok ? "true" : "false") + ",\"detail\":\"" +
               str::json_escape(c.detail) + "\"}";
    }
    out += "],\"trace_files\":[";
    for (std::size_t i = 0; i < report.trace_files.size(); ++i)
        out += (i == 0 ? "\"" : ",\"") + str::json_escape(report.trace_files[i]) +
               "\"";
    out += "]}";
    return out;
}

int run(const Args& args) {
    ypm::log::set_level(ypm::log::Level::error);
    if (args.make_references) {
        print_ota_references();
        return 0;
    }
    // Pool start happens once per process (the pool is global), so it is
    // timed once and added to the median of the repeatable set-ups.
    const TickNs t_start = now_ns();
    std::filesystem::create_directories(args.out_dir);
    const std::size_t workers = ypm::ThreadPool::global().size();
    auto workload = make_workload(args.workload, args.seed, args.out_dir);
    const double pool_start_s = seconds_between(t_start, now_ns());

    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        const TickNs t0 = now_ns();
        workload->setup();
        setup_s.push_back(seconds_between(t0, now_ns()));
    }
    Report report;
    if (args.trace) {
        run_traced(args, *workload, report, workers);
    } else {
        SpanLog spans;
        const Rounds rounds = run_rounds(*workload, spans, false, args.seconds);
        check_rounds_identical(rounds.results, report);
        add_end_to_end(rounds, pool_start_s + median(setup_s), report);
    }
    std::printf("%s\n", to_json(args, report, workers).c_str());
    return 0;
}

} // namespace

} // namespace ypmbench

int main(int argc, char** argv) {
    try {
        return ypmbench::run(ypmbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ypmbench: %s\n", e.what());
        return 1;
    }
}
