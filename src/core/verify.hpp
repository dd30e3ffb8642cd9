#pragma once
/// \file verify.hpp
/// \brief Verification of the behavioural model against transistor-level
///        simulation: the paper's Table 4 comparison and the 500-sample
///        Monte Carlo yield check.

#include "circuits/ota.hpp"
#include "core/behav_model.hpp"
#include "eval/engine.hpp"
#include "mc/stats.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"

namespace ypm::core {

/// Paper Table 4: transistor-level performance of the interpolated sizing
/// vs the model's prediction.
struct ModelVsTransistor {
    double transistor_gain_db = 0.0;
    double transistor_pm_deg = 0.0;
    double model_gain_db = 0.0;
    double model_pm_deg = 0.0;
    double gain_error_pct = 0.0; ///< |transistor - model| / transistor * 100
    double pm_error_pct = 0.0;
};

[[nodiscard]] ModelVsTransistor
compare_model_vs_transistor(eval::Engine& engine,
                            const circuits::OtaEvaluator& evaluator,
                            const SizingResult& sizing);

/// Paper section 4.4: "A Monte Carlo simulation using 500 samples was
/// carried out and verified a yield of 100%".
struct YieldVerification {
    mc::YieldEstimate yield;
    mc::VariationMetrics gain_variation;
    mc::VariationMetrics pm_variation;
};

/// MC the sized design against the *original* (un-inflated) requirement.
[[nodiscard]] YieldVerification
verify_ota_yield(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                 const circuits::OtaSizing& sizing,
                 const process::ProcessSampler& sampler, double min_gain_db,
                 double min_pm_deg, std::size_t samples, Rng& rng);

} // namespace ypm::core
