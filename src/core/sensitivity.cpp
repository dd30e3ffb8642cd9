#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuits/ota_problem.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::core {

namespace {

const ParameterSensitivity&
dominant(const std::vector<ParameterSensitivity>& params, bool for_gain) {
    if (params.empty())
        throw InvalidInputError("SensitivityReport: empty parameter list");
    const auto it = std::max_element(
        params.begin(), params.end(),
        [&](const ParameterSensitivity& a, const ParameterSensitivity& b) {
            const double va = for_gain ? a.gain_elasticity : a.pm_elasticity;
            const double vb = for_gain ? b.gain_elasticity : b.pm_elasticity;
            return std::fabs(va) < std::fabs(vb);
        });
    return *it;
}

} // namespace

const ParameterSensitivity& SensitivityReport::dominant_for_gain() const {
    return dominant(parameters, true);
}

const ParameterSensitivity& SensitivityReport::dominant_for_pm() const {
    return dominant(parameters, false);
}

SensitivityReport compute_sensitivities(eval::Engine& engine,
                                        const circuits::OtaEvaluator& evaluator,
                                        const circuits::OtaSizing& sizing,
                                        double rel_step) {
    if (!(rel_step > 0.0) || rel_step > 0.2)
        throw InvalidInputError("compute_sensitivities: rel_step must be in (0, 0.2]");

    const auto specs = circuits::OtaSizing::parameter_specs();
    const auto base = sizing.to_vector();

    // One batch: the nominal point plus lo/hi probes for every parameter
    // whose clipped central-difference span is non-degenerate.
    eval::EvalBatch batch;
    batch.add(base);
    std::vector<double> spans(base.size(), 0.0);
    std::vector<std::size_t> probe_index(base.size(), 0); ///< into batch
    for (std::size_t k = 0; k < base.size(); ++k) {
        const double h = base[k] * rel_step;
        auto lo = base;
        auto hi = base;
        lo[k] = mathx::clamp(base[k] - h, specs[k].lo, specs[k].hi);
        hi[k] = mathx::clamp(base[k] + h, specs[k].lo, specs[k].hi);
        spans[k] = hi[k] - lo[k];
        if (spans[k] <= 0.0) continue;
        probe_index[k] = batch.size();
        batch.add(std::move(lo));
        batch.add(std::move(hi));
    }

    // Chunk kernel: the 17 probes share warm pooled prototypes; rows stay
    // interchangeable with every other default-tag objectives entry.
    const auto evals = engine.evaluate(
        std::move(batch), circuits::ota_objectives_chunk_kernel(evaluator));

    if (evals.front().failed()) {
        // Re-measure outside the engine to recover the failure diagnostic
        // (EvalResult only carries the NaN sentinel).
        const auto nominal = evaluator.measure(sizing);
        throw NumericalError("compute_sensitivities: nominal point failed: " +
                             nominal.failure);
    }

    SensitivityReport report;
    report.gain_db = evals.front().values[0];
    report.pm_deg = evals.front().values[1];
    report.parameters.reserve(base.size());

    for (std::size_t k = 0; k < base.size(); ++k) {
        ParameterSensitivity ps;
        ps.name = specs[k].name;
        ps.value = base[k];

        if (spans[k] > 0.0) {
            const auto& p_lo = evals[probe_index[k]];
            const auto& p_hi = evals[probe_index[k] + 1];
            if (!p_lo.failed() && !p_hi.failed()) {
                // Elasticity: (relative change in objective)/(relative change
                // in parameter), from the central difference over [lo, hi].
                const double rel_dp = spans[k] / base[k];
                ps.gain_elasticity = (p_hi.values[0] - p_lo.values[0]) /
                                     std::fabs(report.gain_db) / rel_dp;
                ps.pm_elasticity = (p_hi.values[1] - p_lo.values[1]) /
                                   std::fabs(report.pm_deg) / rel_dp;
            }
        }
        report.parameters.push_back(ps);
    }
    return report;
}

} // namespace ypm::core
