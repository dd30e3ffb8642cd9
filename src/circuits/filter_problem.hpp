#pragma once
/// \file filter_problem.hpp
/// \brief moo::Problem adapter for the filter capacitor optimisation (paper
///        section 5: 30 individuals x 40 generations over C1, C2, C3).

#include "circuits/filter.hpp"
#include "moo/problem.hpp"

namespace ypm::circuits {

/// Objectives: minimise the relative cutoff error |fc - target|/target and
/// minimise the worst passband deviation, subject to the response existing
/// at all (failures evaluate to NaN).
class FilterProblem final : public moo::Problem {
public:
    FilterProblem(FilterConfig config, FilterSpecMask mask,
                  OtaModelKind kind = OtaModelKind::behavioural);

    [[nodiscard]] const std::vector<moo::ParameterSpec>& parameters() const override;
    [[nodiscard]] const std::vector<moo::ObjectiveSpec>& objectives() const override;
    [[nodiscard]] std::vector<double>
    evaluate(const std::vector<double>& params) const override;

    /// Batch path: one leased filter prototype per call, element-wise
    /// bit-identical to the scalar evaluate().
    [[nodiscard]] std::vector<std::vector<double>>
    evaluate_batch(const std::vector<std::vector<double>>& points) const override;

    [[nodiscard]] const FilterEvaluator& evaluator() const { return evaluator_; }

private:
    FilterEvaluator evaluator_;
    OtaModelKind kind_;
    std::vector<moo::ParameterSpec> params_;
    std::vector<moo::ObjectiveSpec> objectives_;
};

} // namespace ypm::circuits
