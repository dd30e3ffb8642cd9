#include "circuits/ota_problem.hpp"

namespace ypm::circuits {

namespace {

std::vector<double> perf_row(const OtaPerformance& perf) {
    if (!perf.valid) return moo::failed_evaluation(2);
    return {perf.gain_db, perf.pm_deg};
}

/// The one chunk implementation both the engine kernel and the problem's
/// evaluate_batch route through, so the two batch entry points cannot
/// diverge.
std::vector<std::vector<double>>
measure_rows(const OtaEvaluator& evaluator,
             const std::vector<OtaSizing>& sizings) {
    const auto perfs = evaluator.measure_chunk(sizings);
    std::vector<std::vector<double>> rows;
    rows.reserve(perfs.size());
    for (const OtaPerformance& p : perfs) rows.push_back(perf_row(p));
    return rows;
}

} // namespace

eval::ChunkKernelFn ota_objectives_chunk_kernel(const OtaEvaluator& evaluator) {
    return [&evaluator](const std::vector<const eval::EvalRequest*>& requests) {
        std::vector<OtaSizing> sizings;
        sizings.reserve(requests.size());
        for (const eval::EvalRequest* r : requests)
            sizings.push_back(OtaSizing::from_vector(r->params));
        return measure_rows(evaluator, sizings);
    };
}

OtaProblem::OtaProblem(OtaConfig config)
    : evaluator_(config), params_(OtaSizing::parameter_specs()),
      objectives_{{"gain_db", moo::Direction::maximize},
                  {"pm_deg", moo::Direction::maximize}} {}

const std::vector<moo::ParameterSpec>& OtaProblem::parameters() const {
    return params_;
}

const std::vector<moo::ObjectiveSpec>& OtaProblem::objectives() const {
    return objectives_;
}

std::vector<double> OtaProblem::evaluate(const std::vector<double>& params) const {
    return perf_row(evaluator_.measure(OtaSizing::from_vector(params)));
}

std::vector<std::vector<double>>
OtaProblem::evaluate_batch(const std::vector<std::vector<double>>& points) const {
    std::vector<OtaSizing> sizings;
    sizings.reserve(points.size());
    for (const auto& p : points) sizings.push_back(OtaSizing::from_vector(p));
    return measure_rows(evaluator_, sizings);
}

} // namespace ypm::circuits
