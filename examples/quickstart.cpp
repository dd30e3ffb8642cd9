// Quickstart: the whole paper flow in ~60 lines.
//
// Builds a combined performance + variation behavioural model for the
// symmetrical OTA (scaled-down optimisation so it finishes in seconds),
// then asks it for a sizing that meets "gain >= G, PM >= P" with maximum
// yield, and verifies the answer against the transistor-level simulator.
//
// Run:  ./build/examples/quickstart

#include <cstdio>

#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "core/verify.hpp"

using namespace ypm;

int main() {
    // 1. Configure the flow (paper scale is 100 x 100 with 200 MC samples;
    //    this demo uses a lighter budget).
    circuits::OtaConfig ota;          // 0.35 um card, 20 uA tail, 10 pF load
    core::FlowConfig cfg;
    cfg.ga.population = 30;
    cfg.ga.generations = 15;
    cfg.mc_samples = 60;
    cfg.max_mc_points = 15;
    cfg.seed = 7;

    // 2. Run: WBGA optimisation -> Pareto front -> per-point Monte Carlo.
    std::printf("running the yield flow (WBGA %zux%zu + MC %zu/point)...\n",
                cfg.ga.population, cfg.ga.generations, cfg.mc_samples);
    const core::YieldFlow flow(ota, cfg);
    const core::FlowResult result = flow.run();
    std::printf("done in %.1f s: %zu evaluations, %zu Pareto points\n\n",
                result.timings.total_seconds, result.optimisation.evaluations,
                result.pareto_indices.size());

    // 3. Build the behavioural model and size for a spec.
    const core::BehaviouralModel model(result.front);
    const double req_gain =
        model.gain_min() + 0.4 * (model.gain_max() - model.gain_min());
    const double req_pm =
        model.pm_min() + 0.25 * (model.pm_max() - model.pm_min());
    const core::SizingResult sized = model.size_for_spec(req_gain, req_pm);

    std::printf("spec:       gain >= %.2f dB, pm >= %.2f deg\n", req_gain, req_pm);
    std::printf("variation:  dGain %.2f%%, dPM %.2f%% (interpolated)\n",
                sized.variation_gain_pct, sized.variation_pm_pct);
    std::printf("target:     gain %.2f dB, pm %.2f deg (inflated for yield)\n",
                sized.target_gain_db, sized.target_pm_deg);
    std::printf("sizing:     W1 %.1fu L1 %.2fu W2 %.1fu L2 %.2fu\n",
                sized.sizing.w1 * 1e6, sized.sizing.l1 * 1e6,
                sized.sizing.w2 * 1e6, sized.sizing.l2 * 1e6);

    // 4. Verify at transistor level (paper Table 4).
    const circuits::OtaEvaluator evaluator(ota);
    eval::Engine engine;
    const core::ModelVsTransistor cmp =
        core::compare_model_vs_transistor(engine, evaluator, sized);
    std::printf("\nverification against the transistor-level simulator:\n");
    std::printf("  gain: model %.2f dB vs simulated %.2f dB (%.2f%% error)\n",
                cmp.model_gain_db, cmp.transistor_gain_db, cmp.gain_error_pct);
    std::printf("  pm:   model %.2f deg vs simulated %.2f deg (%.2f%% error)\n",
                cmp.model_pm_deg, cmp.transistor_pm_deg, cmp.pm_error_pct);
    return 0;
}
