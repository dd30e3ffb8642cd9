// Ablation A3 - Monte Carlo budget and sampling strategy.
//
// The paper uses 200 samples per Pareto point for the variation model and
// 500 for yield verification. This ablation shows (a) how the Δ(%) estimate
// converges with sample count, and (b) what Latin hypercube sampling buys
// over plain MC at equal budget for a smooth statistic.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/ota_mc.hpp"
#include "mc/lhs.hpp"
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

    // LHS vs plain MC on a smooth synthetic statistic (mean of a monotone
    // function of the process draws), matching how the sampler would be
    // driven through latin_hypercube_gaussian.
    std::printf("\nLHS vs plain MC (variance of the mean estimator, 64-sample "
                "budget, 200 trials):\n");
    Rng rng(7);
    double var_mc = 0.0, var_lhs = 0.0;
    constexpr int trials = 200;
    constexpr std::size_t budget = 64;
    for (int tr = 0; tr < trials; ++tr) {
        double m1 = 0.0;
        for (std::size_t i = 0; i < budget; ++i)
            m1 += std::tanh(rng.gauss()) / budget;
        var_mc += m1 * m1 / trials;
        const auto g = mc::latin_hypercube_gaussian(budget, 1, rng);
        double m2 = 0.0;
        for (const auto& row : g) m2 += std::tanh(row[0]) / budget;
        var_lhs += m2 * m2 / trials;
    }
    std::printf("  plain MC estimator variance: %.3e\n", var_mc);
    std::printf("  LHS estimator variance:      %.3e  (%.1fx reduction)\n", var_lhs,
                var_mc / var_lhs);
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
