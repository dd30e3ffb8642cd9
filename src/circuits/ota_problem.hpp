#pragma once
/// \file ota_problem.hpp
/// \brief moo::Problem adapter for OTA sizing: the optimisation problem of
///        paper section 4.2 (maximise open-loop gain and phase margin over
///        the 8 designable parameters of Table 1).

#include "circuits/ota.hpp"
#include "eval/engine.hpp"
#include "moo/problem.hpp"

namespace ypm::circuits {

/// The canonical nominal-process objectives kernel: {gain_db, pm_deg} per
/// request, NaNs on simulation failure, measured through one leased
/// testbench prototype per chunk (OtaEvaluator::measure_chunk). Every
/// consumer that shares an engine's default cache tag (the optimiser's
/// populations, transistor-level verification) measures through this one
/// kernel so cached rows stay interchangeable.
/// \param evaluator must outlive the returned kernel.
[[nodiscard]] eval::ChunkKernelFn
ota_objectives_chunk_kernel(const OtaEvaluator& evaluator);

class OtaProblem final : public moo::Problem {
public:
    explicit OtaProblem(OtaConfig config = {});

    [[nodiscard]] const std::vector<moo::ParameterSpec>& parameters() const override;
    [[nodiscard]] const std::vector<moo::ObjectiveSpec>& objectives() const override;

    /// Returns {gain_db, pm_deg}; NaNs when the sizing fails to simulate.
    [[nodiscard]] std::vector<double>
    evaluate(const std::vector<double>& params) const override;

    /// Batch path: one leased testbench prototype per call, element-wise
    /// bit-identical to the scalar evaluate().
    [[nodiscard]] std::vector<std::vector<double>>
    evaluate_batch(const std::vector<std::vector<double>>& points) const override;

    [[nodiscard]] const OtaEvaluator& evaluator() const { return evaluator_; }

private:
    OtaEvaluator evaluator_;
    std::vector<moo::ParameterSpec> params_;
    std::vector<moo::ObjectiveSpec> objectives_;
};

} // namespace ypm::circuits
