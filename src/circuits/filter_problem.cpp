#include "circuits/filter_problem.hpp"

#include <cmath>

namespace ypm::circuits {

namespace {

std::vector<double> perf_row(const FilterPerformance& perf,
                             const FilterSpecMask& mask) {
    if (!perf.valid || std::isnan(perf.fc)) return moo::failed_evaluation(2);
    const double fc_err = std::fabs(perf.fc - mask.fc_target) / mask.fc_target;
    return {fc_err, perf.worst_passband_dev_db};
}

} // namespace

FilterProblem::FilterProblem(FilterConfig config, FilterSpecMask mask,
                             OtaModelKind kind)
    : evaluator_(config, mask), kind_(kind),
      params_(FilterSizing::parameter_specs()),
      objectives_{{"fc_err_rel", moo::Direction::minimize},
                  {"passband_dev_db", moo::Direction::minimize}} {}

const std::vector<moo::ParameterSpec>& FilterProblem::parameters() const {
    return params_;
}

const std::vector<moo::ObjectiveSpec>& FilterProblem::objectives() const {
    return objectives_;
}

std::vector<double> FilterProblem::evaluate(const std::vector<double>& p) const {
    return perf_row(evaluator_.measure(FilterSizing::from_vector(p), kind_),
                    evaluator_.mask());
}

std::vector<std::vector<double>>
FilterProblem::evaluate_batch(const std::vector<std::vector<double>>& points) const {
    std::vector<FilterSizing> sizings;
    sizings.reserve(points.size());
    for (const auto& p : points) sizings.push_back(FilterSizing::from_vector(p));
    const auto perfs = evaluator_.measure_chunk(sizings, kind_);
    std::vector<std::vector<double>> rows;
    rows.reserve(perfs.size());
    for (const FilterPerformance& perf : perfs)
        rows.push_back(perf_row(perf, evaluator_.mask()));
    return rows;
}

} // namespace ypm::circuits
