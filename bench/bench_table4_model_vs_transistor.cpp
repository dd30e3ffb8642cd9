// Experiment E4 - paper Table 4: "Performance comparison".
//
// The behavioural model proposes a sizing for the Table 3 spec; that exact
// sizing is then simulated at transistor level and the percentage error
// between the model's prediction and the simulation is reported (paper:
// 0.93 % gain error, 1.03 % PM error). Also runs the paper's 500-sample MC
// yield verification against the *original* requirement.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "core/behav_model.hpp"
#include "core/verify.hpp"
#include "util/text_table.hpp"

using namespace ypm;

namespace {

std::vector<core::FrontPointData> g_front;

void BM_TransistorVerification(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        auto perf = evaluator.measure(sizing);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_TransistorVerification)->Unit(benchmark::kMillisecond);

void experiment() {
    std::printf("\n=== E4 / Table 4: behavioural model vs transistor level ===\n");
    const core::BehaviouralModel model(g_front);

    double req_gain = 50.0, req_pm = 74.0;
    if (req_gain < model.gain_min() || req_gain > model.gain_max() ||
        req_pm < model.pm_min() || req_pm > model.pm_max()) {
        req_gain = model.gain_min() + 0.4 * (model.gain_max() - model.gain_min());
        req_pm = model.pm_min() + 0.3 * (model.pm_max() - model.pm_min());
        std::printf("note: using interior spec (%.2f dB, %.2f deg)\n", req_gain,
                    req_pm);
    }
    const core::SizingResult sized = model.size_for_spec(req_gain, req_pm);

    const circuits::OtaEvaluator evaluator;
    eval::Engine engine;
    const core::ModelVsTransistor cmp =
        core::compare_model_vs_transistor(engine, evaluator, sized);

    TextTable t({"Performance", "Transistor model", "Behavioural model", "% error",
                 "paper % error"});
    t.add_row({"Gain (dB)", benchx::fmt2(cmp.transistor_gain_db),
               benchx::fmt2(cmp.model_gain_db), benchx::fmt2(cmp.gain_error_pct),
               "0.93"});
    t.add_row({"Phase margin (deg)", benchx::fmt2(cmp.transistor_pm_deg),
               benchx::fmt2(cmp.model_pm_deg), benchx::fmt2(cmp.pm_error_pct),
               "1.03"});
    std::printf("%s", t.to_string().c_str());

    // Paper section 4.4: 500-sample MC verified 100 % yield at the original
    // requirement.
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    Rng rng(500);
    const core::YieldVerification v = core::verify_ota_yield(
        engine, evaluator, sized.sizing, sampler, req_gain, req_pm, 500, rng);
    TextTable y({"quantity", "paper", "measured"});
    y.add_row({"MC samples", "500", std::to_string(v.yield.samples)});
    y.add_row({"yield", "100%", benchx::fmt2(v.yield.yield * 100.0) + "%"});
    y.add_row({"yield 95% CI low", "n/a", benchx::fmt2(v.yield.ci_low * 100.0) + "%"});
    y.add_row({"gain spread 3s/mean (%)", "~0.51",
               benchx::fmt2(v.gain_variation.delta_3sigma_pct)});
    y.add_row({"pm spread 3s/mean (%)", "~1.71",
               benchx::fmt2(v.pm_variation.delta_3sigma_pct)});
    std::printf("\n%s", y.to_string().c_str());
}

} // namespace

int main(int argc, char** argv) {
    g_front = benchx::load_or_build_front();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
