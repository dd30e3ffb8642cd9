// Ablation A5 - corner screening vs Monte Carlo.
//
// Worst-case corners are the cheap industrial pre-check (5 simulations)
// while the paper's flow runs a 200-sample MC per Pareto point. This
// ablation quantifies what the corners capture (the correlated global
// component) and what they miss (local mismatch), plus the cost ratio.
// Also prints the parameter sensitivity report at the nominal sizing.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "core/corners.hpp"
#include "core/ota_mc.hpp"
#include "core/sensitivity.hpp"
#include "util/text_table.hpp"
#include "util/units.hpp"

using namespace ypm;

namespace {

void BM_CornerSweep(benchmark::State& state) {
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    for (auto _ : state) {
        eval::Engine engine; // fresh per sweep: a warm cache would time nothing
        auto sweep =
            core::run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
        benchmark::DoNotOptimize(sweep);
    }
}
BENCHMARK(BM_CornerSweep)->Unit(benchmark::kMillisecond);

void experiment() {
    std::printf("\n=== A5: corner screening vs Monte Carlo ===\n");
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    const circuits::OtaSizing sizing;
    eval::Engine engine;

    const core::CornerSweep sweep =
        core::run_corner_sweep(engine, ev, sizing, sampler);
    TextTable c({"corner", "gain (dB)", "pm (deg)"});
    for (const auto& p : sweep.points)
        c.add_row({process::to_string(p.corner), benchx::fmt2(p.gain_db),
                   benchx::fmt2(p.pm_deg)});
    std::printf("%s", c.to_string().c_str());

    Rng rng(5);
    const auto mc =
        core::run_ota_monte_carlo(engine, ev, sizing, sampler, 200, rng);
    const auto gv = mc.column_variation(0);
    const auto pv = mc.column_variation(1);

    TextTable t({"method", "sims", "dGain (%)", "dPM (%)"});
    t.add_row({"5-corner half-spread", "5",
               benchx::fmt2(sweep.dgain_halfspread_pct),
               benchx::fmt2(sweep.dpm_halfspread_pct)});
    t.add_row({"MC 3sigma/mean (paper)", "200", benchx::fmt2(gv.delta_3sigma_pct),
               benchx::fmt2(pv.delta_3sigma_pct)});
    std::printf("\n%s", t.to_string().c_str());
    std::printf("\nreading: corners bracket the correlated (global) component at\n"
                "1/40th of the simulations but cannot see mismatch; the paper's\n"
                "MC-per-Pareto-point is what the variation tables need.\n");

    const core::SensitivityReport sens =
        core::compute_sensitivities(engine, ev, sizing);
    TextTable s({"param", "value", "gain elasticity", "pm elasticity"});
    for (const auto& p : sens.parameters)
        s.add_row({p.name, units::format_eng(p.value, 3) + "m",
                   benchx::fmt3(p.gain_elasticity), benchx::fmt3(p.pm_elasticity)});
    std::printf("\nsensitivities at the nominal sizing (gain %.2f dB, pm %.2f deg):\n%s",
                sens.gain_db, sens.pm_deg, s.to_string().c_str());
    std::printf("dominant gain knob: %s; dominant pm knob: %s\n",
                sens.dominant_for_gain().name.c_str(),
                sens.dominant_for_pm().name.c_str());
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
