// Experiment E5 - paper Table 5: "Design parameter summary" plus the
// headline speed claim.
//
// Reports the run-parameter summary (generations, evaluation samples,
// Pareto points, wall clock) for a fresh flow run, then quantifies the
// hierarchical-reuse speedup: once the model exists, evaluating a candidate
// design through the behavioural macromodel versus a full transistor-level
// simulation (the "conventional simulation based approach").

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "circuits/filter.hpp"
#include "core/flow.hpp"
#include "util/text_table.hpp"

using namespace ypm;

namespace {

void BM_FilterEval_Behavioural(benchmark::State& state) {
    const circuits::FilterEvaluator ev{circuits::FilterConfig{},
                                       circuits::FilterSpecMask{}};
    const circuits::FilterSizing sizing;
    for (auto _ : state) {
        auto perf = ev.measure(sizing, circuits::OtaModelKind::behavioural);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_FilterEval_Behavioural)->Unit(benchmark::kMillisecond);

void BM_FilterEval_Transistor(benchmark::State& state) {
    const circuits::FilterEvaluator ev{circuits::FilterConfig{},
                                       circuits::FilterSpecMask{}};
    const circuits::FilterSizing sizing;
    for (auto _ : state) {
        auto perf = ev.measure(sizing, circuits::OtaModelKind::transistor);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_FilterEval_Transistor)->Unit(benchmark::kMillisecond);

double time_filter_eval(circuits::OtaModelKind kind, int reps) {
    const circuits::FilterEvaluator ev{circuits::FilterConfig{},
                                       circuits::FilterSpecMask{}};
    const circuits::FilterSizing sizing;
    const util::TickNs t0 = util::now_ns();
    for (int i = 0; i < reps; ++i) {
        auto perf = ev.measure(sizing, kind);
        benchmark::DoNotOptimize(perf);
    }
    return util::seconds_since(t0) / reps;
}

void experiment() {
    std::printf("\n=== E5 / Table 5: design parameter summary & CPU time ===\n");

    // Fresh flow run with timing (also refreshes the artifact cache).
    const auto cfg = benchx::paper_flow_config();
    const core::FlowResult result = benchx::run_paper_flow();

    TextTable t({"Parameter", "paper (Table 5)", "measured"});
    t.add_row({"No. generations", "100", std::to_string(cfg.ga.generations)});
    t.add_row({"Evaluation samples", "10,000",
               std::to_string(result.optimisation.evaluations)});
    t.add_row({"Pareto points", "1022", std::to_string(result.pareto_indices.size())});
    t.add_row({"MC-modelled points", "1022 (all)", std::to_string(result.front.size())});
    t.add_row({"MC samples per point", "200", std::to_string(cfg.mc_samples)});
    t.add_row({"optimisation time (s)", "14,400 (4 h on 1.2 GHz Sparc 3)",
               benchx::fmt2(result.timings.moo_seconds)});
    t.add_row({"variation model time (s)", "n/a",
               benchx::fmt2(result.timings.mc_seconds)});
    t.add_row({"total flow time (s)", "n/a",
               benchx::fmt2(result.timings.total_seconds)});
    // The unified engine's ledger: every testbench evaluation of the flow
    // (GA + nominal re-measures + MC) goes through one instance, so this is
    // the authoritative evaluation count behind the wall-clock numbers.
    t.add_row({"engine evaluations", "n/a",
               benchx::fmt_counters(result.timings.engine)});
    t.add_row({"engine eval wall time (s)", "n/a",
               benchx::fmt2(result.timings.engine.wall_seconds)});
    std::printf("%s", t.to_string().c_str());

    // Hierarchical reuse: the paper's claim is that *after* the one-off
    // model build, designs using the OTA simulate in a fraction of the
    // conventional time.
    const double behav_s = time_filter_eval(circuits::OtaModelKind::behavioural, 20);
    const double trans_s = time_filter_eval(circuits::OtaModelKind::transistor, 20);
    TextTable s({"filter candidate evaluation", "ms", "speedup"});
    s.add_row({"transistor-level (conventional)", benchx::fmt3(trans_s * 1e3), "1.0x"});
    s.add_row({"behavioural macromodel", benchx::fmt3(behav_s * 1e3),
               benchx::fmt2(trans_s / behav_s) + "x"});
    std::printf("\n%s", s.to_string().c_str());
    std::printf("\npaper: model-based optimisation 4 h vs 7 h previously reported "
                "for the same circuit [5] (1.75x); plus per-design reuse wins.\n");
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
