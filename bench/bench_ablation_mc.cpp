// Ablation A3 - Monte Carlo budget.
//
// The paper uses 200 samples per Pareto point for the variation model and
// 500 for yield verification. This ablation shows how the Δ(%) estimate
// converges with sample count.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/ota_mc.hpp"
#include "util/text_table.hpp"

using namespace ypm;

namespace {

void BM_McBatch50(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        auto result = core::run_ota_monte_carlo(
            engine, evaluator, circuits::OtaSizing{}, sampler, 50, rng);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_McBatch50)->Unit(benchmark::kMillisecond);

void experiment() {
    std::printf("\n=== A3: Monte Carlo budget ablation ===\n");
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const circuits::OtaSizing sizing;
    eval::Engine engine;

    // Reference Δ from a large run.
    Rng ref_rng(99);
    const auto ref = core::run_ota_monte_carlo(engine, evaluator, sizing,
                                               sampler, 2000, ref_rng);
    const double ref_dgain = ref.column_variation(0).delta_3sigma_pct;
    const double ref_dpm = ref.column_variation(1).delta_3sigma_pct;
    std::printf("reference (2000 samples): dGain %.3f%%  dPM %.3f%%\n\n", ref_dgain,
                ref_dpm);

    TextTable t({"samples", "dGain (%)", "err vs ref", "dPM (%)", "err vs ref"});
    for (std::size_t n : {25, 50, 100, 200, 500, 1000}) {
        // Average absolute error over a few repetitions.
        double egain = 0.0, epm = 0.0, dgain = 0.0, dpm = 0.0;
        constexpr int reps = 3;
        for (int r = 0; r < reps; ++r) {
            Rng rng(1000 + 17 * static_cast<std::uint64_t>(n) + r);
            const auto mc = core::run_ota_monte_carlo(engine, evaluator, sizing,
                                                      sampler, n, rng);
            const double dg = mc.column_variation(0).delta_3sigma_pct;
            const double dp = mc.column_variation(1).delta_3sigma_pct;
            dgain += dg / reps;
            dpm += dp / reps;
            egain += std::fabs(dg - ref_dgain) / reps;
            epm += std::fabs(dp - ref_dpm) / reps;
        }
        t.add_row({std::to_string(n), benchx::fmt3(dgain), benchx::fmt3(egain),
                   benchx::fmt3(dpm), benchx::fmt3(epm)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("\npaper budget (200) sits where the estimate has roughly "
                "stabilised - the table shows the error still shrinking beyond it.\n");
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
