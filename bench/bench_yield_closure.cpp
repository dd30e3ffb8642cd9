// Yield-in-the-loop closure experiment: does feeding low-budget yield
// probes into WBGA selection buy a better *certified* front than spending
// the same engine-evaluation budget on more nominal generations?
//
// Two arms, equal optimiser budget by construction:
//   yield_aware   pop x gens nominal evaluations + the probes' yield
//                 samples (probe target_half_width 0, so every probed
//                 individual spends its full budget - the probe bill is
//                 exact, not an upper bound);
//   nominal       probes off, with extra generations worth exactly the
//                 probe bill (pop x (gens + probe_samples / pop)).
//
// Both arms' fronts then get the identical sequential yield certification,
// and each arm appends one row to <YPM_BENCH_DIR>/yield_closure.csv:
//
//   arm,population,generations,probe_budget,probe_points,probe_samples,
//   optimiser_evaluations,engine_evaluations,front_points,certified_points,
//   min_yield,mean_yield,min_ci_low,wall_ms
//
// scripts/check_closure.py gates this artifact in the bench-smoke CI job:
// equal optimiser budgets across the arms, and the yield-aware arm's
// certified minimum yield beating the nominal arm's by the calibrated
// ratio floor.
//
// Environment knobs (on top of bench_common.hpp's):
//   YPM_BENCH_CLOSURE_POP     population              (default 24)
//   YPM_BENCH_CLOSURE_GENS    yield-aware generations (default 12)
//   YPM_BENCH_CLOSURE_BUDGET  probe samples per point (default 32)
//   YPM_BENCH_CLOSURE_GAIN    gain spec floor in dB   (default 50)
//   YPM_BENCH_CLOSURE_PM      pm spec floor in deg    (default 70)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/flow.hpp"
#include "mc/yield.hpp"
#include "util/clock.hpp"

using namespace ypm;

namespace {

double env_double(const char* name, double fallback) {
    // Read before any bench thread starts; nothing calls setenv, so the
    // getenv race clang-tidy guards against cannot occur.
    const char* v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtod(v, nullptr);
}

struct ClosureScale {
    std::size_t population = 24;
    std::size_t generations = 12;       ///< yield-aware arm
    std::size_t probe_budget = 32;      ///< samples per probed individual
    std::size_t probe_activation = 4;   ///< first probing generation
    std::size_t probe_points = 6;       ///< top-K probed per generation
    double spec_gain_db = 50.0;
    double spec_pm_deg = 70.0;

    /// Exact probe bill: target_half_width 0 makes every probed individual
    /// spend its full budget, so the bill is a pure function of the knobs.
    [[nodiscard]] std::size_t probe_samples() const {
        return (generations - probe_activation) *
               std::min(probe_points, population) * probe_budget;
    }
    /// Nominal-arm generations carrying the probe bill as extra nominal
    /// evaluations (the equal-budget construction).
    [[nodiscard]] std::size_t nominal_generations() const {
        return generations + (probe_samples() + population - 1) / population;
    }
};

ClosureScale closure_scale() {
    ClosureScale s;
    s.population = benchx::env_size("YPM_BENCH_CLOSURE_POP", 24);
    s.generations = benchx::env_size("YPM_BENCH_CLOSURE_GENS", 12);
    s.probe_budget = benchx::env_size("YPM_BENCH_CLOSURE_BUDGET", 32);
    s.spec_gain_db = env_double("YPM_BENCH_CLOSURE_GAIN", 50.0);
    s.spec_pm_deg = env_double("YPM_BENCH_CLOSURE_PM", 70.0);
    return s;
}

core::FlowConfig closure_config(const ClosureScale& s, bool yield_aware) {
    core::FlowConfig cfg;
    cfg.ga.population = s.population;
    cfg.ga.generations = yield_aware ? s.generations : s.nominal_generations();
    cfg.mc_samples = 24;
    cfg.max_mc_points = 8;
    cfg.seed = 2008; // DATE'08
    cfg.yield_specs = {mc::Spec::at_least("gain_db", s.spec_gain_db),
                       mc::Spec::at_least("pm_deg", s.spec_pm_deg)};
    // Certify the spec-relevant front only: the hygiene floors sit at the
    // spec values, so "minimum certified yield" ranges over designs that
    // nominally meet the specs (anything below them certifies ~0 and would
    // flatten both arms to the same number).
    cfg.min_front_gain_db = s.spec_gain_db;
    cfg.min_front_pm_deg = s.spec_pm_deg;
    // Identical certification tier for both arms: the comparison is about
    // what the optimiser hands over, not how it is measured.
    cfg.yield_sequential.pilot_samples = 64;
    cfg.yield_sequential.chunk_samples = 64;
    cfg.yield_sequential.min_samples = 128;
    cfg.yield_sequential.max_samples = 512;
    cfg.yield_sequential.target_half_width = 0.02;
    if (yield_aware) {
        cfg.yield_probe.budget = s.probe_budget;
        cfg.yield_probe.target_half_width = 0.0; // spend the exact budget
        cfg.ga.robustness.activation_generation = s.probe_activation;
        cfg.ga.robustness.max_points = s.probe_points;
        cfg.ga.robustness.mode = moo::RobustnessMode::weight;
        cfg.ga.robustness.yield_weight = 0.5;
    }
    return cfg;
}

/// Append one arm row. First write of the process truncates, so a rerun
/// replaces the artifact instead of interleaving stale rows into it.
void dump_arm(const std::string& arm, const ClosureScale& s,
              const core::FlowConfig& cfg, const core::FlowResult& result,
              double wall_ms) {
    namespace fs = std::filesystem;
    const fs::path dir = benchx::artifact_dir();
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path csv = dir / "yield_closure.csv";
    static bool appending = false;
    std::ofstream out(csv, appending ? std::ios::app : std::ios::trunc);
    if (!out) return; // artifact only; never fail the bench on IO
    if (!appending)
        out << "arm,population,generations,probe_budget,probe_points,"
               "probe_samples,optimiser_evaluations,engine_evaluations,"
               "front_points,certified_points,min_yield,mean_yield,"
               "min_ci_low,wall_ms\n";
    appending = true;

    double min_yield = 1.0, sum_yield = 0.0, min_ci_low = 1.0;
    for (const auto& y : result.yields) {
        min_yield = std::min(min_yield, y.result.estimate.yield);
        min_ci_low = std::min(min_ci_low, y.result.estimate.ci_low);
        sum_yield += y.result.estimate.yield;
    }
    const double mean_yield =
        result.yields.empty()
            ? 0.0
            : sum_yield / static_cast<double>(result.yields.size());
    out << arm << ',' << s.population << ',' << cfg.ga.generations << ','
        << (arm == "yield_aware" ? s.probe_budget : 0) << ','
        << result.timings.probe_points << ',' << result.timings.probe_samples
        << ','
        << result.timings.moo_evaluations + result.timings.probe_samples << ','
        << result.timings.engine.evaluations << ',' << result.front.size()
        << ',' << result.yields.size() << ','
        << (result.yields.empty() ? 0.0 : min_yield) << ',' << mean_yield
        << ',' << (result.yields.empty() ? 0.0 : min_ci_low) << ',' << wall_ms
        << '\n';
}

void run_arm(benchmark::State& state, bool yield_aware) {
    const ClosureScale s = closure_scale();
    const core::FlowConfig cfg = closure_config(s, yield_aware);
    core::FlowResult result;
    double wall_ms = 0.0;
    for (auto _ : state) {
        const util::TickNs t0 = util::now_ns();
        result = core::YieldFlow(circuits::OtaConfig{}, cfg).run();
        wall_ms = util::seconds_since(t0) * 1e3;
    }
    dump_arm(yield_aware ? "yield_aware" : "nominal", s, cfg, result, wall_ms);
    double min_yield = 1.0;
    for (const auto& y : result.yields)
        min_yield = std::min(min_yield, y.result.estimate.yield);
    state.counters["optimiser_evals"] = static_cast<double>(
        result.timings.moo_evaluations + result.timings.probe_samples);
    state.counters["probe_samples"] =
        static_cast<double>(result.timings.probe_samples);
    state.counters["certified_points"] =
        static_cast<double>(result.yields.size());
    state.counters["min_yield"] = result.yields.empty() ? 0.0 : min_yield;
}

void BM_ClosureYieldAware(benchmark::State& state) { run_arm(state, true); }
void BM_ClosureNominal(benchmark::State& state) { run_arm(state, false); }

BENCHMARK(BM_ClosureYieldAware)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureNominal)->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
