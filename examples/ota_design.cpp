// The paper's section 4 design example, end to end, with reporting:
// symmetrical OTA, 8 designable parameters (Table 1 ranges), WBGA
// optimisation, Pareto extraction, per-point Monte Carlo variation model,
// artifact generation (including the Verilog-A module) and the Table 3/4
// yield-targeting walk-through.
//
// Run:  ./build/examples/ota_design [artifact_dir]
// Scale knobs: YPM_EX_POP / YPM_EX_GENS / YPM_EX_MC (defaults 60/30/100).

#include <cstdio>
#include <cstdlib>

#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "core/verify.hpp"
#include "util/text_table.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

using namespace ypm;

namespace {
std::size_t env_or(const char* name, std::size_t fallback) {
    // Read once at startup on the main thread; nothing calls setenv, so
    // the getenv race clang-tidy guards against cannot occur.
    const char* v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    return v != nullptr && *v != '\0'
               ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
               : fallback;
}
} // namespace

int main(int argc, char** argv) {
    circuits::OtaConfig ota;
    core::FlowConfig cfg;
    cfg.ga.population = env_or("YPM_EX_POP", 60);
    cfg.ga.generations = env_or("YPM_EX_GENS", 30);
    cfg.mc_samples = env_or("YPM_EX_MC", 100);
    cfg.max_mc_points = 40;
    cfg.seed = 42;
    cfg.artifact_dir = argc > 1 ? argv[1] : "ota_design_artifacts";

    std::printf("== symmetrical OTA design example (paper section 4) ==\n");
    std::printf("designable parameters (paper Table 1):\n");
    for (const auto& spec : circuits::OtaSizing::parameter_specs())
        std::printf("  %-3s %sm - %sm\n", spec.name.c_str(),
                    units::format_eng(spec.lo).c_str(),
                    units::format_eng(spec.hi).c_str());

    const core::YieldFlow flow(ota, cfg);
    const core::FlowResult result = flow.run();

    std::printf("\noptimisation: %zu evaluations in %.1f s; front %zu points; "
                "MC %zu points x %zu samples in %.1f s\n",
                result.optimisation.evaluations, result.timings.moo_seconds,
                result.pareto_indices.size(), result.front.size(), cfg.mc_samples,
                result.timings.mc_seconds);

    // Table 2 analogue.
    TextTable t2({"Design", "Gain (dB)", "dGain (%)", "PM (deg)", "dPM (%)"});
    const std::size_t step = std::max<std::size_t>(1, result.front.size() / 10);
    for (std::size_t i = 0; i < result.front.size(); i += step) {
        const auto& p = result.front[i];
        t2.add_row({std::to_string(p.design_id), str::fmt_fixed(p.gain_db, 2),
                    str::fmt_fixed(p.dgain_pct, 2), str::fmt_fixed(p.pm_deg, 2),
                    str::fmt_fixed(p.dpm_pct, 2)});
    }
    std::printf("\nperformance & variation values (cf. paper Table 2):\n%s",
                t2.to_string().c_str());

    // Table 3 analogue: yield-targeted sizing at an interior spec.
    const core::BehaviouralModel model(result.front);
    const double req_gain =
        model.gain_min() + 0.45 * (model.gain_max() - model.gain_min());
    const double req_pm = model.pm_min() + 0.3 * (model.pm_max() - model.pm_min());
    const core::SizingResult sized = model.size_for_spec(req_gain, req_pm);
    TextTable t3({"Performance", "Required", "Variation (%)", "New performance"});
    t3.add_row({"Gain", "> " + str::fmt_fixed(req_gain, 2) + " dB",
                str::fmt_fixed(sized.variation_gain_pct, 2),
                str::fmt_fixed(sized.target_gain_db, 2) + " dB"});
    t3.add_row({"Phase margin", "> " + str::fmt_fixed(req_pm, 2) + " deg",
                str::fmt_fixed(sized.variation_pm_pct, 2),
                str::fmt_fixed(sized.target_pm_deg, 2) + " deg"});
    std::printf("\nyield targeting (cf. paper Table 3):\n%s", t3.to_string().c_str());

    // Table 4 analogue: verify the proposed sizing at transistor level.
    const circuits::OtaEvaluator evaluator(ota);
    eval::Engine engine;
    const core::ModelVsTransistor cmp =
        core::compare_model_vs_transistor(engine, evaluator, sized);
    TextTable t4({"Performance", "Transistor", "Behavioural", "% error"});
    t4.add_row({"Gain (dB)", str::fmt_fixed(cmp.transistor_gain_db, 2),
                str::fmt_fixed(cmp.model_gain_db, 2),
                str::fmt_fixed(cmp.gain_error_pct, 2)});
    t4.add_row({"PM (deg)", str::fmt_fixed(cmp.transistor_pm_deg, 2),
                str::fmt_fixed(cmp.model_pm_deg, 2),
                str::fmt_fixed(cmp.pm_error_pct, 2)});
    std::printf("\nmodel vs transistor (cf. paper Table 4):\n%s",
                t4.to_string().c_str());

    // 500-sample MC yield verification at the original requirement.
    const process::ProcessSampler sampler(ota.card, process::VariationSpec::c35());
    Rng rng(500);
    const core::YieldVerification v = core::verify_ota_yield(
        engine, evaluator, sized.sizing, sampler, req_gain, req_pm, 500, rng);
    std::printf("\nMC yield verification: %.2f%% over %zu samples "
                "(95%% CI low %.2f%%)  [paper: 100%%]\n",
                v.yield.yield * 100.0, v.yield.samples, v.yield.ci_low * 100.0);

    std::printf("\nartifacts written to %s (tables + %s)\n",
                result.artifacts.dir.c_str(), result.artifacts.va_module.c_str());
    return 0;
}
