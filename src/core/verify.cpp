#include "core/verify.hpp"

#include <cmath>

#include "circuits/ota_problem.hpp"
#include "core/ota_mc.hpp"
#include "util/error.hpp"

namespace ypm::core {

ModelVsTransistor
compare_model_vs_transistor(eval::Engine& engine,
                            const circuits::OtaEvaluator& evaluator,
                            const SizingResult& sizing) {
    // Default tag: measures through the canonical objectives chunk kernel,
    // so it shares the engine's nominal {gain, pm} cache key space.
    eval::EvalBatch batch;
    batch.add(sizing.sizing.to_vector());
    const auto evals =
        engine.evaluate(batch, circuits::ota_objectives_chunk_kernel(evaluator));
    if (evals.front().failed()) {
        // Re-measure outside the engine to recover the failure diagnostic.
        const auto perf = evaluator.measure(sizing.sizing);
        throw NumericalError("compare_model_vs_transistor: transistor simulation "
                             "failed: " +
                             perf.failure);
    }

    ModelVsTransistor cmp;
    cmp.transistor_gain_db = evals.front().values[0];
    cmp.transistor_pm_deg = evals.front().values[1];
    cmp.model_gain_db = sizing.predicted_gain_db;
    cmp.model_pm_deg = sizing.predicted_pm_deg;
    cmp.gain_error_pct =
        std::fabs(cmp.transistor_gain_db - cmp.model_gain_db) /
        std::fabs(cmp.transistor_gain_db) * 100.0;
    cmp.pm_error_pct = std::fabs(cmp.transistor_pm_deg - cmp.model_pm_deg) /
                       std::fabs(cmp.transistor_pm_deg) * 100.0;
    return cmp;
}

YieldVerification verify_ota_yield(eval::Engine& engine,
                                   const circuits::OtaEvaluator& evaluator,
                                   const circuits::OtaSizing& sizing,
                                   const process::ProcessSampler& sampler,
                                   double min_gain_db, double min_pm_deg,
                                   std::size_t samples, Rng& rng) {
    const mc::McResult result =
        run_ota_monte_carlo(engine, evaluator, sizing, sampler, samples, rng);

    YieldVerification v;
    v.gain_variation = result.column_variation(0);
    v.pm_variation = result.column_variation(1);
    const std::vector<mc::Spec> specs = {
        mc::Spec::at_least("gain_db", min_gain_db),
        mc::Spec::at_least("pm_deg", min_pm_deg),
    };
    v.yield = mc::estimate_yield(result.rows, specs);
    return v;
}

} // namespace ypm::core
